#ifndef MARLIN_AIS_SIXBIT_H_
#define MARLIN_AIS_SIXBIT_H_

/// \file sixbit.h
/// \brief 6-bit armoring of ITU-R M.1371 AIS payloads.
///
/// AIS messages are dense bitfields transported as 6-bit-armored ASCII in
/// NMEA AIVDM sentences. The bits live in packed 64-bit words (`PackedBits`
/// in `common/packed_bits.h`, MSB-first): de-armoring lands six bits per
/// character directly into words, and field extraction is shift/mask. The
/// frozen byte-per-bit layer (a `std::vector<uint8_t>` of 0/1, read one bit
/// at a time) lives in tests/reference/byte_codec.h as the oracle the
/// differential suites check this one against.
///
/// `UnarmorPayloadInto` is **untouched-or-complete**: on any failure (bad
/// fill-bit count, illegal armor character, payload shorter than its fill
/// bits) the output buffer is left exactly as the caller passed it; on
/// success it holds exactly the de-armored bits. Callers may therefore keep
/// a pooled scratch buffer and never observe a partially overwritten state.

#include <string>
#include <string_view>

#include "common/packed_bits.h"
#include "common/status.h"

namespace marlin {

/// \brief Converts packed bits to the ASCII payload alphabet used in AIVDM
/// sentences. `fill_bits` receives the number of zero bits appended to
/// reach a 6-bit boundary.
std::string ArmorBits(const PackedBits& bits, int* fill_bits);

/// \brief De-armors an AIVDM payload for the decode hot path, dropping
/// `fill_bits` trailing bits. Fails on characters outside the armoring
/// alphabet. On success `*bits` is cleared and refilled (word capacity
/// retained, so a pooled scratch keeps the steady state allocation-free).
Status UnarmorPayloadInto(std::string_view payload, int fill_bits,
                          PackedBits* bits);

}  // namespace marlin

#endif  // MARLIN_AIS_SIXBIT_H_
