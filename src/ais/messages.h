#ifndef MARLIN_AIS_MESSAGES_H_
#define MARLIN_AIS_MESSAGES_H_

/// \file messages.h
/// \brief Bit-exact encoders/decoders for the supported ITU-R M.1371
/// message types (1, 2, 3, 4, 5, 18, 19, 24) over packed payload words
/// (`PackedBits`, common/packed_bits.h). Encoding then decoding any
/// supported message is lossless up to the wire quantisation (0.1 kt SOG,
/// 1/10000 min positions, ...).
///
/// Position-report bodies decode in three wide word reads. The frozen
/// byte-per-bit codec in tests/reference/byte_codec.h reads the same
/// layouts one field at a time; the differential suites decode every
/// corpus payload through both and require identical messages and
/// statuses.

#include "ais/types.h"
#include "common/packed_bits.h"
#include "common/result.h"

namespace marlin {

/// \brief Decodes a payload into a typed AIS message.
///
/// Fails with Corruption for undersized payloads and NotImplemented for
/// message types outside the supported set.
Result<AisMessage> DecodeMessageBits(const PackedBits& bits);

/// \brief Encodes any supported message into packed words.
Result<PackedBits> EncodeMessagePacked(const AisMessage& msg);

}  // namespace marlin

#endif  // MARLIN_AIS_MESSAGES_H_
