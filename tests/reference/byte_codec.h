#ifndef MARLIN_TESTS_REFERENCE_BYTE_CODEC_H_
#define MARLIN_TESTS_REFERENCE_BYTE_CODEC_H_

/// \file byte_codec.h
/// \brief Byte-per-bit AIS codec: the frozen reference for the packed
/// production codec (`ais/sixbit.h`, `ais/messages.h`).
///
/// A de-armored payload is a `std::vector<uint8_t>` holding one 0/1 per
/// bit, and every field is read or written one bit at a time, in the
/// field-by-field order of ITU-R M.1371. This is the pre-packing codec,
/// kept as an oracle: packed_bits_test and decode_equivalence_test decode
/// every corpus payload through it and through production and require
/// identical bits, messages and `Status` values. Its layout code is written
/// separately from production's, which reads position-report bodies in
/// three wide word reads. bench_f2_pipeline runs it as the byte arm of
/// `BM_DecodeMicro`.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "ais/types.h"
#include "common/packed_bits.h"
#include "common/result.h"
#include "common/status.h"

namespace marlin::reference {

/// \brief Append-only big-endian bit stream builder, one byte per bit.
class BitWriter {
 public:
  /// \brief Appends the low `width` bits of `value`, MSB first. Width 1..32.
  void WriteUnsigned(uint32_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      bits_.push_back(static_cast<uint8_t>((value >> i) & 1u));
    }
  }

  /// \brief Appends a two's-complement signed field of `width` bits.
  void WriteSigned(int32_t value, int width) {
    WriteUnsigned(static_cast<uint32_t>(value) &
                      (width == 32 ? 0xFFFFFFFFu : ((1u << width) - 1u)),
                  width);
  }

  /// \brief Appends a string in the AIS 6-bit alphabet, padded/truncated to
  /// exactly `chars` characters ('@' = 0 pads the tail).
  void WriteString(std::string_view text, int chars) {
    for (int i = 0; i < chars; ++i) {
      if (i < static_cast<int>(text.size())) {
        WriteUnsigned(CharToSixBit(text[i]), 6);
      } else {
        WriteUnsigned(0, 6);  // '@' padding
      }
    }
  }

  /// \brief The accumulated bits (each element 0/1).
  const std::vector<uint8_t>& bits() const { return bits_; }

 private:
  std::vector<uint8_t> bits_;
};

/// \brief Sequential big-endian bit stream reader with bounds checking.
class BitReader {
 public:
  explicit BitReader(const std::vector<uint8_t>& bits) : bits_(bits) {}

  /// \brief Reads `width` bits as an unsigned value. Width 1..32.
  Result<uint32_t> ReadUnsigned(int width) {
    if (width < 1 || width > 32) {
      return Status::Invalid("bit field width out of range");
    }
    if (remaining() < width) {
      return Status::OutOfRange("bit stream exhausted");
    }
    uint32_t v = 0;
    for (int i = 0; i < width; ++i) {
      v = (v << 1) | bits_[pos_++];
    }
    return v;
  }

  /// \brief Reads `width` bits as a two's-complement signed value.
  Result<int32_t> ReadSigned(int width) {
    MARLIN_ASSIGN_OR_RETURN(uint32_t raw, ReadUnsigned(width));
    if (width < 32 && (raw & (1u << (width - 1)))) {
      raw |= ~((1u << width) - 1u);
    }
    return static_cast<int32_t>(raw);
  }

  /// \brief Reads `chars` characters of AIS 6-bit text; trailing '@' padding
  /// and trailing spaces are stripped.
  Result<std::string> ReadString(int chars) {
    std::string out;
    out.reserve(chars);
    for (int i = 0; i < chars; ++i) {
      MARLIN_ASSIGN_OR_RETURN(uint32_t v, ReadUnsigned(6));
      out.push_back(SixBitToChar(v));
    }
    const size_t end = out.find('@');
    if (end != std::string::npos) out.resize(end);
    while (!out.empty() && out.back() == ' ') out.pop_back();
    return out;
  }

  /// \brief Skips `width` bits (spare fields).
  Status Skip(int width) {
    if (remaining() < width) return Status::OutOfRange("bit stream exhausted");
    pos_ += width;
    return Status::OK();
  }

  int remaining() const { return static_cast<int>(bits_.size()) - pos_; }

 private:
  const std::vector<uint8_t>& bits_;
  int pos_ = 0;
};

// --- Armoring ----------------------------------------------------------------

/// \brief Converts raw bits to the AIVDM payload alphabet; `fill_bits`
/// receives the zero bits appended to reach a 6-bit boundary.
inline std::string ArmorBits(const std::vector<uint8_t>& bits,
                             int* fill_bits) {
  std::string payload;
  const int n = static_cast<int>(bits.size());
  const int groups = (n + 5) / 6;
  payload.reserve(groups);
  for (int g = 0; g < groups; ++g) {
    uint32_t v = 0;
    for (int b = 0; b < 6; ++b) {
      const int idx = g * 6 + b;
      v = (v << 1) | (idx < n ? bits[idx] : 0);
    }
    // ITU armoring: add 48; values above 39 skip the 8 chars 'X'..'_'.
    payload.push_back(static_cast<char>(v > 39 ? v + 56 : v + 48));
  }
  if (fill_bits != nullptr) *fill_bits = groups * 6 - n;
  return payload;
}

/// \brief De-armors `payload` into `*bits`, dropping `fill_bits` trailing
/// bits. The whole payload is validated before the first write, so on any
/// error `*bits` is left exactly as passed.
inline Status UnarmorPayloadInto(std::string_view payload, int fill_bits,
                                 std::vector<uint8_t>* bits) {
  if (fill_bits < 0 || fill_bits > 5) {
    return Status::Invalid("fill bits must be 0..5");
  }
  for (const char c : payload) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 48 || u > 119) {
      return Status::Corruption("invalid armoring character in AIS payload");
    }
  }
  if (static_cast<int>(payload.size()) * 6 < fill_bits) {
    return Status::Corruption("payload shorter than fill bits");
  }
  // resize() alone (no clear()) avoids re-zeroing the whole buffer per
  // line: every slot up to the new size is overwritten below.
  bits->resize(payload.size() * 6);
  uint8_t* out = bits->data();
  for (const char c : payload) {
    uint32_t v = static_cast<unsigned char>(c) - 48u;
    if (v > 40u) v -= 8u;
    for (int b = 0; b < 6; ++b) {
      out[b] = static_cast<uint8_t>((v >> (5 - b)) & 1u);
    }
    out += 6;
  }
  bits->resize(bits->size() - fill_bits);
  return Status::OK();
}

/// \brief Allocating form of `UnarmorPayloadInto`.
inline Result<std::vector<uint8_t>> UnarmorPayload(std::string_view payload,
                                                   int fill_bits) {
  std::vector<uint8_t> bits;
  MARLIN_RETURN_NOT_OK(UnarmorPayloadInto(payload, fill_bits, &bits));
  return bits;
}

// --- Wire quantisation -------------------------------------------------------

namespace byte_codec_detail {

inline int32_t QuantizeLonLat(double deg) {
  return static_cast<int32_t>(std::lround(deg * 600000.0));
}
inline double DequantizeLonLat(int32_t v) {
  return static_cast<double>(v) / 600000.0;
}
inline uint32_t QuantizeSog(double knots) {
  if (knots >= AisSentinels::kSpeedNotAvailable) return 1023;
  return static_cast<uint32_t>(
      std::clamp(std::lround(knots * 10.0), 0l, 1022l));
}
inline double DequantizeSog(uint32_t v) {
  return v == 1023 ? AisSentinels::kSpeedNotAvailable : v / 10.0;
}
inline uint32_t QuantizeCog(double deg) {
  if (deg >= AisSentinels::kCourseNotAvailable) return 3600;
  return static_cast<uint32_t>(std::clamp(std::lround(deg * 10.0), 0l, 3599l));
}
inline double DequantizeCog(uint32_t v) {
  return v >= 3600 ? AisSentinels::kCourseNotAvailable : v / 10.0;
}

inline void WriteHeader(BitWriter* w, int type, int repeat, Mmsi mmsi) {
  w->WriteUnsigned(static_cast<uint32_t>(type), 6);
  w->WriteUnsigned(static_cast<uint32_t>(repeat), 2);
  w->WriteUnsigned(mmsi, 30);
}

/// Reads lon(28) lat(27) into a GeoPoint.
inline Result<GeoPoint> ReadPosition(BitReader* r) {
  MARLIN_ASSIGN_OR_RETURN(int32_t lon, r->ReadSigned(28));
  MARLIN_ASSIGN_OR_RETURN(int32_t lat, r->ReadSigned(27));
  return GeoPoint(DequantizeLonLat(lat), DequantizeLonLat(lon));
}

inline void WritePosition(BitWriter* w, const GeoPoint& p) {
  w->WriteSigned(QuantizeLonLat(p.lon), 28);
  w->WriteSigned(QuantizeLonLat(p.lat), 27);
}

// --- Decoders, one field per read --------------------------------------------

inline Result<AisMessage> DecodeClassA(int type, int repeat, Mmsi mmsi,
                                       BitReader* r) {
  PositionReport m;
  m.message_type = type;
  m.repeat_indicator = repeat;
  m.mmsi = mmsi;
  MARLIN_ASSIGN_OR_RETURN(uint32_t status, r->ReadUnsigned(4));
  m.nav_status = static_cast<NavigationStatus>(status);
  MARLIN_ASSIGN_OR_RETURN(m.rate_of_turn, r->ReadSigned(8));
  MARLIN_ASSIGN_OR_RETURN(uint32_t sog, r->ReadUnsigned(10));
  m.sog_knots = DequantizeSog(sog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t acc, r->ReadUnsigned(1));
  m.position_accurate = acc != 0;
  MARLIN_ASSIGN_OR_RETURN(m.position, ReadPosition(r));
  MARLIN_ASSIGN_OR_RETURN(uint32_t cog, r->ReadUnsigned(12));
  m.cog_deg = DequantizeCog(cog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t hdg, r->ReadUnsigned(9));
  m.true_heading = static_cast<int>(hdg);
  MARLIN_ASSIGN_OR_RETURN(uint32_t ts, r->ReadUnsigned(6));
  m.utc_second = static_cast<int>(ts);
  MARLIN_ASSIGN_OR_RETURN(uint32_t man, r->ReadUnsigned(2));
  m.maneuver_indicator = static_cast<int>(man);
  MARLIN_RETURN_NOT_OK(r->Skip(3));  // spare
  MARLIN_ASSIGN_OR_RETURN(uint32_t raim, r->ReadUnsigned(1));
  m.raim = raim != 0;
  MARLIN_ASSIGN_OR_RETURN(m.radio_status, r->ReadUnsigned(19));
  return AisMessage(m);
}

inline Result<AisMessage> DecodeBaseStation(int repeat, Mmsi mmsi,
                                            BitReader* r) {
  BaseStationReport m;
  m.repeat_indicator = repeat;
  m.mmsi = mmsi;
  MARLIN_ASSIGN_OR_RETURN(uint32_t year, r->ReadUnsigned(14));
  MARLIN_ASSIGN_OR_RETURN(uint32_t month, r->ReadUnsigned(4));
  MARLIN_ASSIGN_OR_RETURN(uint32_t day, r->ReadUnsigned(5));
  MARLIN_ASSIGN_OR_RETURN(uint32_t hour, r->ReadUnsigned(5));
  MARLIN_ASSIGN_OR_RETURN(uint32_t minute, r->ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t second, r->ReadUnsigned(6));
  m.year = static_cast<int>(year);
  m.month = static_cast<int>(month);
  m.day = static_cast<int>(day);
  m.hour = static_cast<int>(hour);
  m.minute = static_cast<int>(minute);
  m.second = static_cast<int>(second);
  MARLIN_ASSIGN_OR_RETURN(uint32_t acc, r->ReadUnsigned(1));
  m.position_accurate = acc != 0;
  MARLIN_ASSIGN_OR_RETURN(m.position, ReadPosition(r));
  MARLIN_ASSIGN_OR_RETURN(uint32_t epfd, r->ReadUnsigned(4));
  m.epfd_type = static_cast<int>(epfd);
  MARLIN_RETURN_NOT_OK(r->Skip(10));  // spare
  MARLIN_ASSIGN_OR_RETURN(uint32_t raim, r->ReadUnsigned(1));
  m.raim = raim != 0;
  MARLIN_ASSIGN_OR_RETURN(m.radio_status, r->ReadUnsigned(19));
  return AisMessage(m);
}

/// Reads bow(9) stern(9) port(6) starboard(6).
template <typename T>
Status ReadDimensions(BitReader* r, T* m) {
  MARLIN_ASSIGN_OR_RETURN(uint32_t bow, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stern, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t port, r->ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stbd, r->ReadUnsigned(6));
  m->dim_to_bow_m = static_cast<int>(bow);
  m->dim_to_stern_m = static_cast<int>(stern);
  m->dim_to_port_m = static_cast<int>(port);
  m->dim_to_starboard_m = static_cast<int>(stbd);
  return Status::OK();
}

template <typename T>
void WriteDimensions(BitWriter* w, const T& m) {
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_bow_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_stern_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_port_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_starboard_m), 6);
}

inline Result<AisMessage> DecodeStaticVoyage(int repeat, Mmsi mmsi,
                                             BitReader* r) {
  StaticVoyageData m;
  m.repeat_indicator = repeat;
  m.mmsi = mmsi;
  MARLIN_ASSIGN_OR_RETURN(uint32_t version, r->ReadUnsigned(2));
  m.ais_version = static_cast<int>(version);
  MARLIN_ASSIGN_OR_RETURN(m.imo_number, r->ReadUnsigned(30));
  MARLIN_ASSIGN_OR_RETURN(m.call_sign, r->ReadString(7));
  MARLIN_ASSIGN_OR_RETURN(m.name, r->ReadString(20));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stype, r->ReadUnsigned(8));
  m.ship_type = static_cast<int>(stype);
  MARLIN_RETURN_NOT_OK(ReadDimensions(r, &m));
  MARLIN_ASSIGN_OR_RETURN(uint32_t epfd, r->ReadUnsigned(4));
  m.epfd_type = static_cast<int>(epfd);
  MARLIN_ASSIGN_OR_RETURN(uint32_t emonth, r->ReadUnsigned(4));
  MARLIN_ASSIGN_OR_RETURN(uint32_t eday, r->ReadUnsigned(5));
  MARLIN_ASSIGN_OR_RETURN(uint32_t ehour, r->ReadUnsigned(5));
  MARLIN_ASSIGN_OR_RETURN(uint32_t eminute, r->ReadUnsigned(6));
  m.eta_month = static_cast<int>(emonth);
  m.eta_day = static_cast<int>(eday);
  m.eta_hour = static_cast<int>(ehour);
  m.eta_minute = static_cast<int>(eminute);
  MARLIN_ASSIGN_OR_RETURN(uint32_t draught, r->ReadUnsigned(8));
  m.draught_m = draught / 10.0;
  MARLIN_ASSIGN_OR_RETURN(m.destination, r->ReadString(20));
  MARLIN_ASSIGN_OR_RETURN(uint32_t dte, r->ReadUnsigned(1));
  m.dte = dte == 0;  // wire: 0 = DTE available
  return AisMessage(m);
}

/// The position block shared by types 18 and 19: reserved(8) sog(10)
/// acc(1) lon(28) lat(27) cog(12) hdg(9) ts(6).
inline Status ReadClassBKinematics(BitReader* r, PositionReport* p) {
  MARLIN_RETURN_NOT_OK(r->Skip(8));  // regional reserved
  MARLIN_ASSIGN_OR_RETURN(uint32_t sog, r->ReadUnsigned(10));
  p->sog_knots = DequantizeSog(sog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t acc, r->ReadUnsigned(1));
  p->position_accurate = acc != 0;
  MARLIN_ASSIGN_OR_RETURN(p->position, ReadPosition(r));
  MARLIN_ASSIGN_OR_RETURN(uint32_t cog, r->ReadUnsigned(12));
  p->cog_deg = DequantizeCog(cog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t hdg, r->ReadUnsigned(9));
  p->true_heading = static_cast<int>(hdg);
  MARLIN_ASSIGN_OR_RETURN(uint32_t ts, r->ReadUnsigned(6));
  p->utc_second = static_cast<int>(ts);
  return Status::OK();
}

inline void WriteClassBKinematics(BitWriter* w, const PositionReport& p) {
  w->WriteUnsigned(0, 8);  // regional reserved
  w->WriteUnsigned(QuantizeSog(p.sog_knots), 10);
  w->WriteUnsigned(p.position_accurate ? 1 : 0, 1);
  WritePosition(w, p.position);
  w->WriteUnsigned(QuantizeCog(p.cog_deg), 12);
  w->WriteUnsigned(static_cast<uint32_t>(p.true_heading), 9);
  w->WriteUnsigned(static_cast<uint32_t>(p.utc_second), 6);
}

inline Result<AisMessage> DecodeClassB(int repeat, Mmsi mmsi, BitReader* r) {
  PositionReport m;
  m.message_type = 18;
  m.repeat_indicator = repeat;
  m.mmsi = mmsi;
  MARLIN_RETURN_NOT_OK(ReadClassBKinematics(r, &m));
  MARLIN_RETURN_NOT_OK(r->Skip(2));  // regional reserved
  MARLIN_RETURN_NOT_OK(r->Skip(5));  // CS/display/DSC/band/msg22 flags
  MARLIN_RETURN_NOT_OK(r->Skip(1));  // assigned
  MARLIN_ASSIGN_OR_RETURN(uint32_t raim, r->ReadUnsigned(1));
  m.raim = raim != 0;
  MARLIN_ASSIGN_OR_RETURN(m.radio_status, r->ReadUnsigned(20));
  return AisMessage(m);
}

inline Result<AisMessage> DecodeExtendedClassB(int repeat, Mmsi mmsi,
                                               BitReader* r) {
  ExtendedClassBReport m;
  PositionReport& p = m.position_report;
  p.message_type = 19;
  p.repeat_indicator = repeat;
  p.mmsi = mmsi;
  MARLIN_RETURN_NOT_OK(ReadClassBKinematics(r, &p));
  MARLIN_RETURN_NOT_OK(r->Skip(4));  // regional reserved
  MARLIN_ASSIGN_OR_RETURN(m.name, r->ReadString(20));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stype, r->ReadUnsigned(8));
  m.ship_type = static_cast<int>(stype);
  MARLIN_RETURN_NOT_OK(ReadDimensions(r, &m));
  MARLIN_ASSIGN_OR_RETURN(uint32_t epfd, r->ReadUnsigned(4));
  m.epfd_type = static_cast<int>(epfd);
  MARLIN_RETURN_NOT_OK(r->Skip(1));  // raim
  MARLIN_ASSIGN_OR_RETURN(uint32_t dte, r->ReadUnsigned(1));
  m.dte = dte == 0;
  return AisMessage(m);
}

inline Result<AisMessage> DecodeStaticData(int repeat, Mmsi mmsi,
                                           BitReader* r) {
  StaticDataReport m;
  m.repeat_indicator = repeat;
  m.mmsi = mmsi;
  MARLIN_ASSIGN_OR_RETURN(uint32_t part, r->ReadUnsigned(2));
  m.part_number = static_cast<int>(part);
  if (m.part_number == 0) {
    MARLIN_ASSIGN_OR_RETURN(m.name, r->ReadString(20));
    return AisMessage(m);
  }
  if (m.part_number != 1) {
    return Status::Corruption("type 24 part number must be 0 or 1");
  }
  MARLIN_ASSIGN_OR_RETURN(uint32_t stype, r->ReadUnsigned(8));
  m.ship_type = static_cast<int>(stype);
  MARLIN_ASSIGN_OR_RETURN(m.vendor_id, r->ReadString(3));
  MARLIN_RETURN_NOT_OK(r->Skip(4));   // unit model code
  MARLIN_RETURN_NOT_OK(r->Skip(20));  // serial number
  MARLIN_ASSIGN_OR_RETURN(m.call_sign, r->ReadString(7));
  MARLIN_RETURN_NOT_OK(ReadDimensions(r, &m));
  return AisMessage(m);
}

}  // namespace byte_codec_detail

/// \brief Decodes a byte-per-bit payload into a typed AIS message. Fails
/// with Corruption for payloads shorter than the 38-bit header and
/// NotImplemented for types outside {1, 2, 3, 4, 5, 18, 19, 24}.
inline Result<AisMessage> DecodeMessageBits(const std::vector<uint8_t>& bits) {
  using namespace byte_codec_detail;
  if (bits.size() < 38) {
    return Status::Corruption("AIS payload shorter than common header");
  }
  BitReader r(bits);
  MARLIN_ASSIGN_OR_RETURN(uint32_t type, r.ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t repeat_bits, r.ReadUnsigned(2));
  MARLIN_ASSIGN_OR_RETURN(Mmsi mmsi, r.ReadUnsigned(30));
  const int repeat = static_cast<int>(repeat_bits);
  switch (type) {
    case 1:
    case 2:
    case 3:
      return DecodeClassA(static_cast<int>(type), repeat, mmsi, &r);
    case 4:
      return DecodeBaseStation(repeat, mmsi, &r);
    case 5:
      return DecodeStaticVoyage(repeat, mmsi, &r);
    case 18:
      return DecodeClassB(repeat, mmsi, &r);
    case 19:
      return DecodeExtendedClassB(repeat, mmsi, &r);
    case 24:
      return DecodeStaticData(repeat, mmsi, &r);
    default:
      return Status::NotImplemented("unsupported AIS message type " +
                                    std::to_string(type));
  }
}

// --- Encoders, one field per write -------------------------------------------

/// \brief Encodes a position report (types 1/2/3 or 18).
inline Result<std::vector<uint8_t>> EncodePositionReport(
    const PositionReport& m) {
  using namespace byte_codec_detail;
  BitWriter w;
  if (m.message_type == 18) {
    WriteHeader(&w, 18, m.repeat_indicator, m.mmsi);
    WriteClassBKinematics(&w, m);
    w.WriteUnsigned(0, 2);        // regional reserved
    w.WriteUnsigned(0b11000, 5);  // CS unit, no display, no DSC
    w.WriteUnsigned(0, 1);        // not assigned
    w.WriteUnsigned(m.raim ? 1 : 0, 1);
    w.WriteUnsigned(m.radio_status & 0xFFFFF, 20);
    return w.bits();
  }
  if (m.message_type < 1 || m.message_type > 3) {
    return Status::Invalid("position report type must be 1, 2, 3, or 18");
  }
  WriteHeader(&w, m.message_type, m.repeat_indicator, m.mmsi);
  w.WriteUnsigned(static_cast<uint32_t>(m.nav_status), 4);
  w.WriteSigned(m.rate_of_turn, 8);
  w.WriteUnsigned(QuantizeSog(m.sog_knots), 10);
  w.WriteUnsigned(m.position_accurate ? 1 : 0, 1);
  WritePosition(&w, m.position);
  w.WriteUnsigned(QuantizeCog(m.cog_deg), 12);
  w.WriteUnsigned(static_cast<uint32_t>(m.true_heading), 9);
  w.WriteUnsigned(static_cast<uint32_t>(m.utc_second), 6);
  w.WriteUnsigned(static_cast<uint32_t>(m.maneuver_indicator), 2);
  w.WriteUnsigned(0, 3);  // spare
  w.WriteUnsigned(m.raim ? 1 : 0, 1);
  w.WriteUnsigned(m.radio_status & 0x7FFFF, 19);
  return w.bits();
}

/// \brief Encodes a base-station report (type 4).
inline Result<std::vector<uint8_t>> EncodeBaseStationReport(
    const BaseStationReport& m) {
  using namespace byte_codec_detail;
  BitWriter w;
  WriteHeader(&w, 4, m.repeat_indicator, m.mmsi);
  w.WriteUnsigned(static_cast<uint32_t>(m.year), 14);
  w.WriteUnsigned(static_cast<uint32_t>(m.month), 4);
  w.WriteUnsigned(static_cast<uint32_t>(m.day), 5);
  w.WriteUnsigned(static_cast<uint32_t>(m.hour), 5);
  w.WriteUnsigned(static_cast<uint32_t>(m.minute), 6);
  w.WriteUnsigned(static_cast<uint32_t>(m.second), 6);
  w.WriteUnsigned(m.position_accurate ? 1 : 0, 1);
  WritePosition(&w, m.position);
  w.WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w.WriteUnsigned(0, 10);  // spare
  w.WriteUnsigned(m.raim ? 1 : 0, 1);
  w.WriteUnsigned(m.radio_status & 0x7FFFF, 19);
  return w.bits();
}

/// \brief Encodes static & voyage data (type 5).
inline Result<std::vector<uint8_t>> EncodeStaticVoyageData(
    const StaticVoyageData& m) {
  using namespace byte_codec_detail;
  BitWriter w;
  WriteHeader(&w, 5, m.repeat_indicator, m.mmsi);
  w.WriteUnsigned(static_cast<uint32_t>(m.ais_version), 2);
  w.WriteUnsigned(m.imo_number, 30);
  w.WriteString(m.call_sign, 7);
  w.WriteString(m.name, 20);
  w.WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  WriteDimensions(&w, m);
  w.WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w.WriteUnsigned(static_cast<uint32_t>(m.eta_month), 4);
  w.WriteUnsigned(static_cast<uint32_t>(m.eta_day), 5);
  w.WriteUnsigned(static_cast<uint32_t>(m.eta_hour), 5);
  w.WriteUnsigned(static_cast<uint32_t>(m.eta_minute), 6);
  w.WriteUnsigned(static_cast<uint32_t>(
                      std::clamp(std::lround(m.draught_m * 10), 0l, 255l)),
                  8);
  w.WriteString(m.destination, 20);
  w.WriteUnsigned(m.dte ? 0 : 1, 1);  // wire: 0 = DTE available
  w.WriteUnsigned(0, 1);              // spare
  return w.bits();
}

/// \brief Encodes an extended Class-B report (type 19).
inline Result<std::vector<uint8_t>> EncodeExtendedClassB(
    const ExtendedClassBReport& m) {
  using namespace byte_codec_detail;
  const PositionReport& p = m.position_report;
  BitWriter w;
  WriteHeader(&w, 19, p.repeat_indicator, p.mmsi);
  WriteClassBKinematics(&w, p);
  w.WriteUnsigned(0, 4);  // regional reserved
  w.WriteString(m.name, 20);
  w.WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  WriteDimensions(&w, m);
  w.WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w.WriteUnsigned(0, 1);  // raim
  w.WriteUnsigned(m.dte ? 0 : 1, 1);
  w.WriteUnsigned(0, 1);  // assigned-mode flag
  w.WriteUnsigned(0, 4);  // spare
  return w.bits();
}

/// \brief Encodes Class-B static data (type 24, part A or B).
inline Result<std::vector<uint8_t>> EncodeStaticDataReport(
    const StaticDataReport& m) {
  using namespace byte_codec_detail;
  BitWriter w;
  WriteHeader(&w, 24, m.repeat_indicator, m.mmsi);
  w.WriteUnsigned(static_cast<uint32_t>(m.part_number), 2);
  if (m.part_number == 0) {
    w.WriteString(m.name, 20);
    return w.bits();
  }
  if (m.part_number != 1) {
    return Status::Invalid("type 24 part number must be 0 or 1");
  }
  w.WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  w.WriteString(m.vendor_id, 3);
  w.WriteUnsigned(0, 4);   // unit model code
  w.WriteUnsigned(0, 20);  // serial number
  w.WriteString(m.call_sign, 7);
  WriteDimensions(&w, m);
  w.WriteUnsigned(0, 6);  // spare
  return w.bits();
}

/// \brief Encodes any supported message.
inline Result<std::vector<uint8_t>> EncodeMessageBits(const AisMessage& msg) {
  return std::visit(
      [](const auto& m) -> Result<std::vector<uint8_t>> {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PositionReport>) {
          return EncodePositionReport(m);
        } else if constexpr (std::is_same_v<T, BaseStationReport>) {
          return EncodeBaseStationReport(m);
        } else if constexpr (std::is_same_v<T, StaticVoyageData>) {
          return EncodeStaticVoyageData(m);
        } else if constexpr (std::is_same_v<T, ExtendedClassBReport>) {
          return EncodeExtendedClassB(m);
        } else {
          return EncodeStaticDataReport(m);
        }
      },
      msg);
}

}  // namespace marlin::reference

#endif  // MARLIN_TESTS_REFERENCE_BYTE_CODEC_H_
