#include "ais/messages.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <variant>

namespace marlin {
namespace {

// --- Wire quantisation helpers -------------------------------------------

// Longitude/latitude are signed fields in 1/10000 arc-minute.
int32_t QuantizeLon(double lon) {
  return static_cast<int32_t>(std::lround(lon * 600000.0));
}
int32_t QuantizeLat(double lat) {
  return static_cast<int32_t>(std::lround(lat * 600000.0));
}
double DequantizeLonLat(int32_t v) { return static_cast<double>(v) / 600000.0; }

// SOG in 0.1 knot, capped at 102.2; 1023 = not available.
uint32_t QuantizeSog(double knots) {
  if (knots >= AisSentinels::kSpeedNotAvailable) return 1023;
  return static_cast<uint32_t>(
      std::clamp(std::lround(knots * 10.0), 0l, 1022l));
}
double DequantizeSog(uint32_t v) {
  return v == 1023 ? AisSentinels::kSpeedNotAvailable : v / 10.0;
}

// COG in 0.1 degree; 3600 = not available.
uint32_t QuantizeCog(double deg) {
  if (deg >= AisSentinels::kCourseNotAvailable) return 3600;
  return static_cast<uint32_t>(std::clamp(std::lround(deg * 10.0), 0l, 3599l));
}
double DequantizeCog(uint32_t v) {
  return v >= 3600 ? AisSentinels::kCourseNotAvailable : v / 10.0;
}

struct CommonHeader {
  int type = 0;
  int repeat = 0;
  Mmsi mmsi = 0;
};

// The 38-bit common header in one word read: type(6) repeat(2) mmsi(30).
// `DecodeMessageBits` has already guaranteed at least 38 bits.
Result<CommonHeader> ReadHeader(PackedBitReader* r) {
  MARLIN_ASSIGN_OR_RETURN(uint64_t v, r->ReadUnsigned(38));
  CommonHeader h;
  h.type = static_cast<int>(v >> 32);
  h.repeat = static_cast<int>((v >> 30) & 0x3u);
  h.mmsi = static_cast<Mmsi>(v & 0x3FFFFFFFu);
  return h;
}

void WriteHeader(PackedBitWriter* w, int type, int repeat, Mmsi mmsi) {
  w->WriteUnsigned(static_cast<uint32_t>(type), 6);
  w->WriteUnsigned(static_cast<uint32_t>(repeat), 2);
  w->WriteUnsigned(mmsi, 30);
}

// --- Decoders --------------------------------------------------------------

/// Sign-extends the low `width` bits of a wide-read field (identical to
/// `ReadSigned` on a reader positioned at the field).
inline int32_t SignExtendField(uint64_t raw, int width) {
  const uint64_t sign = uint64_t{1} << (width - 1);
  raw &= (uint64_t{1} << width) - 1;
  return static_cast<int32_t>(static_cast<int64_t>(raw ^ sign) -
                              static_cast<int64_t>(sign));
}

// The dominant steady-state shape: the 130-bit position-report body in
// three wide word reads instead of thirteen field reads. Field boundaries
// and values are bit-identical to a field-by-field read (packed_bits_test
// sweeps every truncation point of every type against the byte-per-bit
// reference codec to prove it); any mid-body truncation fails with the same
// "bit stream exhausted" status a field read would.
Result<AisMessage> DecodeClassAPosition(const CommonHeader& h,
                                        PackedBitReader* r) {
  PositionReport m;
  m.message_type = h.type;
  m.repeat_indicator = h.repeat;
  m.mmsi = h.mmsi;
  // status(4) rot(8) sog(10) acc(1) lon(28) = 51 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t a, r->ReadUnsigned(51));
  m.nav_status = static_cast<NavigationStatus>((a >> 47) & 0xF);
  m.rate_of_turn = SignExtendField(a >> 39, 8);
  m.sog_knots = DequantizeSog(static_cast<uint32_t>((a >> 29) & 0x3FF));
  m.position_accurate = ((a >> 28) & 1) != 0;
  const int32_t lon = SignExtendField(a, 28);
  // lat(27) cog(12) hdg(9) = 48 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t b, r->ReadUnsigned(48));
  const int32_t lat = SignExtendField(b >> 21, 27);
  m.position = GeoPoint(DequantizeLonLat(lat), DequantizeLonLat(lon));
  m.cog_deg = DequantizeCog(static_cast<uint32_t>((b >> 9) & 0xFFF));
  m.true_heading = static_cast<int>(b & 0x1FF);
  // ts(6) man(2) spare(3) raim(1) radio(19) = 31 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t c, r->ReadUnsigned(31));
  m.utc_second = static_cast<int>((c >> 25) & 0x3F);
  m.maneuver_indicator = static_cast<int>((c >> 23) & 0x3);
  m.raim = ((c >> 19) & 1) != 0;
  m.radio_status = static_cast<uint32_t>(c & 0x7FFFF);
  return AisMessage(m);
}

Result<AisMessage> DecodeBaseStation(const CommonHeader& h,
                                     PackedBitReader* r) {
  BaseStationReport m;
  m.repeat_indicator = h.repeat;
  m.mmsi = h.mmsi;
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
  MARLIN_ASSIGN_OR_RETURN(int32_t lon, r->ReadSigned(28));
  MARLIN_ASSIGN_OR_RETURN(int32_t lat, r->ReadSigned(27));
  m.position = GeoPoint(DequantizeLonLat(lat), DequantizeLonLat(lon));
  MARLIN_ASSIGN_OR_RETURN(uint32_t epfd, r->ReadUnsigned(4));
  m.epfd_type = static_cast<int>(epfd);
  MARLIN_RETURN_NOT_OK(r->Skip(10));  // spare
  MARLIN_ASSIGN_OR_RETURN(uint32_t raim, r->ReadUnsigned(1));
  m.raim = raim != 0;
  MARLIN_ASSIGN_OR_RETURN(uint32_t radio, r->ReadUnsigned(19));
  m.radio_status = radio;
  return AisMessage(m);
}

Result<AisMessage> DecodeStaticVoyage(const CommonHeader& h,
                                      PackedBitReader* r) {
  StaticVoyageData m;
  m.repeat_indicator = h.repeat;
  m.mmsi = h.mmsi;
  MARLIN_ASSIGN_OR_RETURN(uint32_t version, r->ReadUnsigned(2));
  m.ais_version = static_cast<int>(version);
  MARLIN_ASSIGN_OR_RETURN(uint32_t imo, r->ReadUnsigned(30));
  m.imo_number = imo;
  MARLIN_ASSIGN_OR_RETURN(m.call_sign, r->ReadString(7));
  MARLIN_ASSIGN_OR_RETURN(m.name, r->ReadString(20));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stype, r->ReadUnsigned(8));
  m.ship_type = static_cast<int>(stype);
  MARLIN_ASSIGN_OR_RETURN(uint32_t bow, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stern, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t port, r->ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stbd, r->ReadUnsigned(6));
  m.dim_to_bow_m = static_cast<int>(bow);
  m.dim_to_stern_m = static_cast<int>(stern);
  m.dim_to_port_m = static_cast<int>(port);
  m.dim_to_starboard_m = static_cast<int>(stbd);
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

// The Class-B body (type 18) in wide reads, mirroring the Class-A layout
// above.
Result<AisMessage> DecodeClassBPosition(const CommonHeader& h,
                                        PackedBitReader* r) {
  PositionReport m;
  m.message_type = 18;
  m.repeat_indicator = h.repeat;
  m.mmsi = h.mmsi;
  // reserved(8) sog(10) acc(1) lon(28) = 47 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t a, r->ReadUnsigned(47));
  m.sog_knots = DequantizeSog(static_cast<uint32_t>((a >> 29) & 0x3FF));
  m.position_accurate = ((a >> 28) & 1) != 0;
  const int32_t lon = SignExtendField(a, 28);
  // lat(27) cog(12) hdg(9) = 48 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t b, r->ReadUnsigned(48));
  const int32_t lat = SignExtendField(b >> 21, 27);
  m.position = GeoPoint(DequantizeLonLat(lat), DequantizeLonLat(lon));
  m.cog_deg = DequantizeCog(static_cast<uint32_t>((b >> 9) & 0xFFF));
  m.true_heading = static_cast<int>(b & 0x1FF);
  // ts(6) reserved(2) flags(5) assigned(1) raim(1) radio(20) = 35 bits
  MARLIN_ASSIGN_OR_RETURN(uint64_t c, r->ReadUnsigned(35));
  m.utc_second = static_cast<int>((c >> 29) & 0x3F);
  m.raim = ((c >> 20) & 1) != 0;
  m.radio_status = static_cast<uint32_t>(c & 0xFFFFF);
  return AisMessage(m);
}

Result<AisMessage> DecodeExtendedClassBMsg(const CommonHeader& h,
                                           PackedBitReader* r) {
  ExtendedClassBReport m;
  PositionReport& p = m.position_report;
  p.message_type = 19;
  p.repeat_indicator = h.repeat;
  p.mmsi = h.mmsi;
  MARLIN_RETURN_NOT_OK(r->Skip(8));  // regional reserved
  MARLIN_ASSIGN_OR_RETURN(uint32_t sog, r->ReadUnsigned(10));
  p.sog_knots = DequantizeSog(sog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t acc, r->ReadUnsigned(1));
  p.position_accurate = acc != 0;
  MARLIN_ASSIGN_OR_RETURN(int32_t lon, r->ReadSigned(28));
  MARLIN_ASSIGN_OR_RETURN(int32_t lat, r->ReadSigned(27));
  p.position = GeoPoint(DequantizeLonLat(lat), DequantizeLonLat(lon));
  MARLIN_ASSIGN_OR_RETURN(uint32_t cog, r->ReadUnsigned(12));
  p.cog_deg = DequantizeCog(cog);
  MARLIN_ASSIGN_OR_RETURN(uint32_t hdg, r->ReadUnsigned(9));
  p.true_heading = static_cast<int>(hdg);
  MARLIN_ASSIGN_OR_RETURN(uint32_t ts, r->ReadUnsigned(6));
  p.utc_second = static_cast<int>(ts);
  MARLIN_RETURN_NOT_OK(r->Skip(4));  // regional reserved
  MARLIN_ASSIGN_OR_RETURN(m.name, r->ReadString(20));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stype, r->ReadUnsigned(8));
  m.ship_type = static_cast<int>(stype);
  MARLIN_ASSIGN_OR_RETURN(uint32_t bow, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stern, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t port, r->ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stbd, r->ReadUnsigned(6));
  m.dim_to_bow_m = static_cast<int>(bow);
  m.dim_to_stern_m = static_cast<int>(stern);
  m.dim_to_port_m = static_cast<int>(port);
  m.dim_to_starboard_m = static_cast<int>(stbd);
  MARLIN_ASSIGN_OR_RETURN(uint32_t epfd, r->ReadUnsigned(4));
  m.epfd_type = static_cast<int>(epfd);
  MARLIN_RETURN_NOT_OK(r->Skip(1));  // raim
  MARLIN_ASSIGN_OR_RETURN(uint32_t dte, r->ReadUnsigned(1));
  m.dte = dte == 0;
  return AisMessage(m);
}

Result<AisMessage> DecodeStaticData(const CommonHeader& h, PackedBitReader* r) {
  StaticDataReport m;
  m.repeat_indicator = h.repeat;
  m.mmsi = h.mmsi;
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
  MARLIN_ASSIGN_OR_RETURN(uint32_t bow, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stern, r->ReadUnsigned(9));
  MARLIN_ASSIGN_OR_RETURN(uint32_t port, r->ReadUnsigned(6));
  MARLIN_ASSIGN_OR_RETURN(uint32_t stbd, r->ReadUnsigned(6));
  m.dim_to_bow_m = static_cast<int>(bow);
  m.dim_to_stern_m = static_cast<int>(stern);
  m.dim_to_port_m = static_cast<int>(port);
  m.dim_to_starboard_m = static_cast<int>(stbd);
  return AisMessage(m);
}

// --- Encoders --------------------------------------------------------------

Status EncodePositionReportInto(const PositionReport& m, PackedBitWriter* w) {
  if (m.message_type == 18) {
    WriteHeader(w, 18, m.repeat_indicator, m.mmsi);
    w->WriteUnsigned(0, 8);  // regional reserved
    w->WriteUnsigned(QuantizeSog(m.sog_knots), 10);
    w->WriteUnsigned(m.position_accurate ? 1 : 0, 1);
    w->WriteSigned(QuantizeLon(m.position.lon), 28);
    w->WriteSigned(QuantizeLat(m.position.lat), 27);
    w->WriteUnsigned(QuantizeCog(m.cog_deg), 12);
    w->WriteUnsigned(static_cast<uint32_t>(m.true_heading), 9);
    w->WriteUnsigned(static_cast<uint32_t>(m.utc_second), 6);
    w->WriteUnsigned(0, 2);  // regional reserved
    w->WriteUnsigned(0b11000, 5);  // CS unit, no display, no DSC
    w->WriteUnsigned(0, 1);  // not assigned
    w->WriteUnsigned(m.raim ? 1 : 0, 1);
    w->WriteUnsigned(m.radio_status & 0xFFFFF, 20);
    return Status::OK();
  }
  if (m.message_type < 1 || m.message_type > 3) {
    return Status::Invalid("position report type must be 1, 2, 3, or 18");
  }
  WriteHeader(w, m.message_type, m.repeat_indicator, m.mmsi);
  w->WriteUnsigned(static_cast<uint32_t>(m.nav_status), 4);
  w->WriteSigned(m.rate_of_turn, 8);
  w->WriteUnsigned(QuantizeSog(m.sog_knots), 10);
  w->WriteUnsigned(m.position_accurate ? 1 : 0, 1);
  w->WriteSigned(QuantizeLon(m.position.lon), 28);
  w->WriteSigned(QuantizeLat(m.position.lat), 27);
  w->WriteUnsigned(QuantizeCog(m.cog_deg), 12);
  w->WriteUnsigned(static_cast<uint32_t>(m.true_heading), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.utc_second), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.maneuver_indicator), 2);
  w->WriteUnsigned(0, 3);  // spare
  w->WriteUnsigned(m.raim ? 1 : 0, 1);
  w->WriteUnsigned(m.radio_status & 0x7FFFF, 19);
  return Status::OK();
}

Status EncodeBaseStationReportInto(const BaseStationReport& m,
                                   PackedBitWriter* w) {
  WriteHeader(w, 4, m.repeat_indicator, m.mmsi);
  w->WriteUnsigned(static_cast<uint32_t>(m.year), 14);
  w->WriteUnsigned(static_cast<uint32_t>(m.month), 4);
  w->WriteUnsigned(static_cast<uint32_t>(m.day), 5);
  w->WriteUnsigned(static_cast<uint32_t>(m.hour), 5);
  w->WriteUnsigned(static_cast<uint32_t>(m.minute), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.second), 6);
  w->WriteUnsigned(m.position_accurate ? 1 : 0, 1);
  w->WriteSigned(QuantizeLon(m.position.lon), 28);
  w->WriteSigned(QuantizeLat(m.position.lat), 27);
  w->WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w->WriteUnsigned(0, 10);  // spare
  w->WriteUnsigned(m.raim ? 1 : 0, 1);
  w->WriteUnsigned(m.radio_status & 0x7FFFF, 19);
  return Status::OK();
}

Status EncodeStaticVoyageDataInto(const StaticVoyageData& m,
                                  PackedBitWriter* w) {
  WriteHeader(w, 5, m.repeat_indicator, m.mmsi);
  w->WriteUnsigned(static_cast<uint32_t>(m.ais_version), 2);
  w->WriteUnsigned(m.imo_number, 30);
  w->WriteString(m.call_sign, 7);
  w->WriteString(m.name, 20);
  w->WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_bow_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_stern_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_port_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_starboard_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w->WriteUnsigned(static_cast<uint32_t>(m.eta_month), 4);
  w->WriteUnsigned(static_cast<uint32_t>(m.eta_day), 5);
  w->WriteUnsigned(static_cast<uint32_t>(m.eta_hour), 5);
  w->WriteUnsigned(static_cast<uint32_t>(m.eta_minute), 6);
  w->WriteUnsigned(
      static_cast<uint32_t>(std::clamp(std::lround(m.draught_m * 10), 0l, 255l)),
      8);
  w->WriteString(m.destination, 20);
  w->WriteUnsigned(m.dte ? 0 : 1, 1);  // wire: 0 = DTE available
  w->WriteUnsigned(0, 1);              // spare
  return Status::OK();
}

Status EncodeExtendedClassBInto(const ExtendedClassBReport& m,
                                PackedBitWriter* w) {
  const PositionReport& p = m.position_report;
  WriteHeader(w, 19, p.repeat_indicator, p.mmsi);
  w->WriteUnsigned(0, 8);  // regional reserved
  w->WriteUnsigned(QuantizeSog(p.sog_knots), 10);
  w->WriteUnsigned(p.position_accurate ? 1 : 0, 1);
  w->WriteSigned(QuantizeLon(p.position.lon), 28);
  w->WriteSigned(QuantizeLat(p.position.lat), 27);
  w->WriteUnsigned(QuantizeCog(p.cog_deg), 12);
  w->WriteUnsigned(static_cast<uint32_t>(p.true_heading), 9);
  w->WriteUnsigned(static_cast<uint32_t>(p.utc_second), 6);
  w->WriteUnsigned(0, 4);  // regional reserved
  w->WriteString(m.name, 20);
  w->WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_bow_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_stern_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_port_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_starboard_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.epfd_type), 4);
  w->WriteUnsigned(0, 1);  // raim
  w->WriteUnsigned(m.dte ? 0 : 1, 1);
  w->WriteUnsigned(0, 1);  // assigned-mode flag
  w->WriteUnsigned(0, 4);  // spare
  return Status::OK();
}

Status EncodeStaticDataReportInto(const StaticDataReport& m,
                                  PackedBitWriter* w) {
  WriteHeader(w, 24, m.repeat_indicator, m.mmsi);
  w->WriteUnsigned(static_cast<uint32_t>(m.part_number), 2);
  if (m.part_number == 0) {
    w->WriteString(m.name, 20);
    return Status::OK();
  }
  if (m.part_number != 1) {
    return Status::Invalid("type 24 part number must be 0 or 1");
  }
  w->WriteUnsigned(static_cast<uint32_t>(m.ship_type), 8);
  w->WriteString(m.vendor_id, 3);
  w->WriteUnsigned(0, 4);   // unit model code
  w->WriteUnsigned(0, 20);  // serial number
  w->WriteString(m.call_sign, 7);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_bow_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_stern_m), 9);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_port_m), 6);
  w->WriteUnsigned(static_cast<uint32_t>(m.dim_to_starboard_m), 6);
  w->WriteUnsigned(0, 6);  // spare
  return Status::OK();
}

Status EncodeMessageInto(const AisMessage& msg, PackedBitWriter* w) {
  return std::visit(
      [w](const auto& m) -> Status {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PositionReport>) {
          return EncodePositionReportInto(m, w);
        } else if constexpr (std::is_same_v<T, BaseStationReport>) {
          return EncodeBaseStationReportInto(m, w);
        } else if constexpr (std::is_same_v<T, StaticVoyageData>) {
          return EncodeStaticVoyageDataInto(m, w);
        } else if constexpr (std::is_same_v<T, ExtendedClassBReport>) {
          return EncodeExtendedClassBInto(m, w);
        } else {
          return EncodeStaticDataReportInto(m, w);
        }
      },
      msg);
}

}  // namespace

Result<AisMessage> DecodeMessageBits(const PackedBits& bits) {
  if (bits.size_bits() < 38) {
    return Status::Corruption("AIS payload shorter than common header");
  }
  PackedBitReader r(bits);
  MARLIN_ASSIGN_OR_RETURN(CommonHeader h, ReadHeader(&r));
  switch (h.type) {
    case 1:
    case 2:
    case 3:
      return DecodeClassAPosition(h, &r);
    case 4:
      return DecodeBaseStation(h, &r);
    case 5:
      return DecodeStaticVoyage(h, &r);
    case 18:
      return DecodeClassBPosition(h, &r);
    case 19:
      return DecodeExtendedClassBMsg(h, &r);
    case 24:
      return DecodeStaticData(h, &r);
    default:
      return Status::NotImplemented("unsupported AIS message type " +
                                    std::to_string(h.type));
  }
}

Result<PackedBits> EncodeMessagePacked(const AisMessage& msg) {
  PackedBitWriter w;
  MARLIN_RETURN_NOT_OK(EncodeMessageInto(msg, &w));
  return std::move(w).TakeBits();
}

}  // namespace marlin
