// Heap probe for the traced binary only: the allocations-per-line and
// allocations-per-point layer metrics read AllocProbe::ThreadCount around
// the stage replay's calls. The timed binary leaves operator new alone.

#include "common/alloc_probe.h"

MARLIN_INSTALL_ALLOC_PROBE()
