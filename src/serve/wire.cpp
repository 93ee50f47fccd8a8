#include "serve/wire.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "serve/byte_io.hpp"

namespace irp {
namespace {

constexpr std::string_view kContext = "wire";

[[noreturn]] void fail(WireFault fault, const std::string& detail) {
  throw WireDecodeError(
      fault, "wire: " + std::string(wire_fault_name(fault)) + " — " + detail);
}

bool valid_frame_type(std::uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kClassifyRequest:
    case FrameType::kAlternateRoutesRequest:
    case FrameType::kPspVisibilityRequest:
    case FrameType::kRelationshipLookupRequest:
    case FrameType::kClassifyResponse:
    case FrameType::kAlternateRoutesResponse:
    case FrameType::kPspVisibilityResponse:
    case FrameType::kRelationshipLookupResponse:
    case FrameType::kError:
      return true;
  }
  return false;
}

// -- Payload encoders. Field order is normative; docs/PROTOCOL.md mirrors
// these byte for byte.

ScenarioOptions unpack_scenario(std::uint8_t bits) {
  IRP_CHECK((bits & ~0x0fu) == 0, "wire: reserved scenario bits set");
  const int psp = bits >> 2;
  IRP_CHECK(psp <= 2, "wire: PSP mode out of range");
  ScenarioOptions opts;
  opts.use_hybrid = (bits & 1) != 0;
  opts.use_siblings = (bits & 2) != 0;
  opts.psp = static_cast<PspMode>(psp);
  return opts;
}

void put_path(ByteWriter& w, const AsPath& path) {
  w.asns(path.hops);
  w.asns(path.poison_set);
}

AsPath get_path(ByteReader& r) {
  AsPath path;
  path.hops = r.asns();
  path.poison_set = r.asns();
  return path;
}

std::uint8_t get_bool(ByteReader& r) {
  const std::uint8_t v = r.u8();
  IRP_CHECK(v <= 1, "wire: boolean field not 0 or 1");
  return v;
}

struct RequestEncoder {
  ByteWriter& w;

  void operator()(const ClassifyRequest& req) {
    const RouteDecision& d = req.decision;
    w.u32(d.decider);
    w.u32(d.next_hop);
    w.u32(d.dest_asn);
    w.u32(d.src_asn);
    w.u32(d.origin_asn);
    w.u32(static_cast<std::uint32_t>(d.remaining_len));
    w.prefix(d.dst_prefix);
    w.u8(d.interconnect_city.has_value() ? 1 : 0);
    w.u32(d.interconnect_city.value_or(0));
    w.u64(d.traceroute_index);
    w.asns(d.measured_remaining);
    w.u8(pack_scenario(req.scenario));
  }
  void operator()(const AlternateRoutesRequest& req) {
    w.u32(req.asn);
    w.prefix(req.prefix);
  }
  void operator()(const PspVisibilityRequest& req) {
    w.u32(req.origin);
    w.u32(req.neighbor);
    w.prefix(req.prefix);
  }
  void operator()(const RelationshipLookupRequest& req) {
    w.u32(req.a);
    w.u32(req.b);
  }
};

struct ResponseEncoder {
  ByteWriter& w;

  void operator()(const ClassifyResponse& r) {
    w.u8(static_cast<std::uint8_t>(r.category));
    w.u8(r.best ? 1 : 0);
    w.u8(r.is_short ? 1 : 0);
  }
  void operator()(const AlternateRoutesResponse& r) {
    w.u8(r.has_route ? 1 : 0);
    w.u8(r.self_originated ? 1 : 0);
    w.u32(r.next_hop);
    put_path(w, r.selected);
    w.u32(static_cast<std::uint32_t>(r.alternates.size()));
    for (const AlternateRoutesResponse::Alternate& alt : r.alternates) {
      w.u32(alt.from_asn);
      put_path(w, alt.path);
    }
  }
  void operator()(const PspVisibilityResponse& r) {
    w.u8(r.announced ? 1 : 0);
    w.u8(r.announced_any ? 1 : 0);
    w.asns(r.neighbors);
  }
  void operator()(const RelationshipLookupResponse& r) {
    w.u8(r.has_link ? 1 : 0);
    w.u8(r.rel.has_value() ? 1 : 0);
    w.u8(r.rel ? static_cast<std::uint8_t>(*r.rel) : 0);
    w.u8(r.same_sibling_group ? 1 : 0);
  }
};

OracleRequest decode_request_payload(FrameType type, ByteReader& r) {
  switch (type) {
    case FrameType::kClassifyRequest: {
      ClassifyRequest req;
      RouteDecision& d = req.decision;
      d.decider = r.u32();
      d.next_hop = r.u32();
      d.dest_asn = r.u32();
      d.src_asn = r.u32();
      d.origin_asn = r.u32();
      d.remaining_len = r.u32();
      d.dst_prefix = r.prefix();
      const bool has_city = get_bool(r) != 0;
      const CityId city = r.u32();
      if (has_city)
        d.interconnect_city = city;
      else
        IRP_CHECK(city == 0, "wire: city set without has_city");
      d.traceroute_index = r.u64();
      d.measured_remaining = r.asns();
      req.scenario = unpack_scenario(r.u8());
      return req;
    }
    case FrameType::kAlternateRoutesRequest: {
      AlternateRoutesRequest req;
      req.asn = r.u32();
      req.prefix = r.prefix();
      return req;
    }
    case FrameType::kPspVisibilityRequest: {
      PspVisibilityRequest req;
      req.origin = r.u32();
      req.neighbor = r.u32();
      req.prefix = r.prefix();
      return req;
    }
    case FrameType::kRelationshipLookupRequest: {
      RelationshipLookupRequest req;
      req.a = r.u32();
      req.b = r.u32();
      return req;
    }
    default:
      IRP_UNREACHABLE("non-request frame type");
  }
}

OracleResponse decode_response_payload(FrameType type, ByteReader& r) {
  switch (type) {
    case FrameType::kClassifyResponse: {
      ClassifyResponse resp;
      const std::uint8_t category = r.u8();
      IRP_CHECK(category <= 3, "wire: decision category out of range");
      resp.category = static_cast<DecisionCategory>(category);
      resp.best = get_bool(r) != 0;
      resp.is_short = get_bool(r) != 0;
      return resp;
    }
    case FrameType::kAlternateRoutesResponse: {
      AlternateRoutesResponse resp;
      resp.has_route = get_bool(r) != 0;
      resp.self_originated = get_bool(r) != 0;
      resp.next_hop = r.u32();
      resp.selected = get_path(r);
      const std::uint32_t num_alt = r.count(12);
      resp.alternates.reserve(num_alt);
      for (std::uint32_t i = 0; i < num_alt; ++i) {
        AlternateRoutesResponse::Alternate alt;
        alt.from_asn = r.u32();
        alt.path = get_path(r);
        resp.alternates.push_back(std::move(alt));
      }
      return resp;
    }
    case FrameType::kPspVisibilityResponse: {
      PspVisibilityResponse resp;
      resp.announced = get_bool(r) != 0;
      resp.announced_any = get_bool(r) != 0;
      resp.neighbors = r.asns();
      return resp;
    }
    case FrameType::kRelationshipLookupResponse: {
      RelationshipLookupResponse resp;
      resp.has_link = get_bool(r) != 0;
      const bool has_rel = get_bool(r) != 0;
      const std::uint8_t rel = r.u8();
      IRP_CHECK(rel <= 3, "wire: relationship out of range");
      if (has_rel)
        resp.rel = static_cast<Relationship>(rel);
      else
        IRP_CHECK(rel == 0, "wire: relationship set without has_rel");
      resp.same_sibling_group = get_bool(r) != 0;
      return resp;
    }
    default:
      IRP_UNREACHABLE("non-response frame type");
  }
}

}  // namespace

bool is_request_frame(FrameType type) {
  return static_cast<std::uint8_t>(type) <= 0x03;
}

bool is_response_frame(FrameType type) {
  const std::uint8_t raw = static_cast<std::uint8_t>(type);
  return raw >= 0x10 && raw <= 0x13;
}

std::string_view frame_type_name(FrameType type) {
  switch (type) {
    case FrameType::kClassifyRequest: return "classify_request";
    case FrameType::kAlternateRoutesRequest: return "alternate_routes_request";
    case FrameType::kPspVisibilityRequest: return "psp_visibility_request";
    case FrameType::kRelationshipLookupRequest: return "relationship_request";
    case FrameType::kClassifyResponse: return "classify_response";
    case FrameType::kAlternateRoutesResponse: return "alternate_routes_response";
    case FrameType::kPspVisibilityResponse: return "psp_visibility_response";
    case FrameType::kRelationshipLookupResponse: return "relationship_response";
    case FrameType::kError: return "error";
  }
  IRP_UNREACHABLE("bad frame type");
}

std::string_view wire_error_code_name(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kOverloaded: return "overloaded";
    case WireErrorCode::kMalformedRequest: return "malformed_request";
    case WireErrorCode::kShuttingDown: return "shutting_down";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kUnknownStudy: return "unknown_study";
  }
  IRP_UNREACHABLE("bad wire error code");
}

std::string_view wire_fault_name(WireFault fault) {
  switch (fault) {
    case WireFault::kBadMagic: return "bad magic";
    case WireFault::kBadVersion: return "unsupported version";
    case WireFault::kBadFlags: return "reserved flags set";
    case WireFault::kBadType: return "unknown frame type";
    case WireFault::kOversized: return "oversized payload";
    case WireFault::kChecksumMismatch: return "checksum mismatch";
    case WireFault::kMalformedPayload: return "malformed payload";
  }
  IRP_UNREACHABLE("bad wire fault");
}

std::string encode_frame(const WireFrame& frame) {
  // Emit the lowest version that can carry the frame: without a study id
  // the bytes are exactly the version-1 encoding, so pre-multi-study peers
  // keep understanding everything a default-study client sends.
  std::string body;
  if (!frame.study.empty()) {
    ByteWriter prefix;
    prefix.str(frame.study);
    body = prefix.take();
  }
  body += frame.payload;

  ByteWriter w;
  w.u32(kWireMagic);
  w.u16(frame.study.empty() ? kWireVersionMin : kWireVersion);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u8(frame.study.empty() ? 0 : kWireFlagStudy);
  w.u64(frame.request_id);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u64(fnv1a64(body));
  std::string out = w.take();
  out += body;
  return out;
}

std::optional<WireFrame> try_decode_frame_at(std::string_view buffer,
                                             std::size_t& offset,
                                             std::size_t max_payload) {
  buffer.remove_prefix(offset);
  if (buffer.size() < kWireHeaderBytes) return std::nullopt;
  ByteReader header{buffer.substr(0, kWireHeaderBytes), std::string(kContext)};
  const std::uint32_t magic = header.u32();
  if (magic != kWireMagic)
    fail(WireFault::kBadMagic, "stream does not start with IRPW");
  const std::uint16_t version = header.u16();
  if (version < kWireVersionMin || version > kWireVersion)
    fail(WireFault::kBadVersion,
         "got version " + std::to_string(version) + ", speak " +
             std::to_string(kWireVersionMin) + ".." +
             std::to_string(kWireVersion));
  const std::uint8_t raw_type = header.u8();
  if (!valid_frame_type(raw_type))
    fail(WireFault::kBadType,
         "frame type " + std::to_string(raw_type) + " unknown");
  const std::uint8_t flags = header.u8();
  const std::uint8_t known_flags = version >= 2 ? kWireFlagStudy : 0;
  if ((flags & ~known_flags) != 0)
    fail(WireFault::kBadFlags,
         version >= 2 ? "reserved flag bits set in version 2 frame"
                      : "flags must be 0 in version 1");
  const std::uint64_t request_id = header.u64();
  const std::uint32_t payload_size = header.u32();
  if (payload_size > max_payload)
    fail(WireFault::kOversized,
         "payload_size " + std::to_string(payload_size) + " exceeds bound " +
             std::to_string(max_payload));
  const std::uint64_t checksum = header.u64();

  if (buffer.size() < kWireHeaderBytes + payload_size) return std::nullopt;
  WireFrame frame;
  frame.type = static_cast<FrameType>(raw_type);
  frame.request_id = request_id;
  frame.payload = std::string(buffer.substr(kWireHeaderBytes, payload_size));
  if (fnv1a64(frame.payload) != checksum)
    fail(WireFault::kChecksumMismatch, "payload corrupted in transit");
  offset += kWireHeaderBytes + payload_size;
  if ((flags & kWireFlagStudy) != 0) {
    // Peel the study-id prefix off the (checksum-verified) payload. A prefix
    // that does not parse is a framing-level fault: the peer claimed the
    // flag but did not encode the prefix, so nothing after it is trustable.
    try {
      ByteReader r{frame.payload, std::string(kContext)};
      frame.study = r.str();
      frame.payload = frame.payload.substr(frame.payload.size() -
                                           r.remaining());
    } catch (const CheckError& e) {
      fail(WireFault::kMalformedPayload,
           std::string("study-id prefix undecodable — ") + e.what());
    }
  }
  return frame;
}

std::optional<WireFrame> try_decode_frame(std::string& buffer,
                                          std::size_t max_payload) {
  std::size_t offset = 0;
  try {
    std::optional<WireFrame> frame =
        try_decode_frame_at(buffer, offset, max_payload);
    buffer.erase(0, offset);
    return frame;
  } catch (const WireDecodeError&) {
    buffer.erase(0, offset);  // Consumes a frame whose study prefix failed.
    throw;
  }
}

std::string encode_request(std::uint64_t request_id,
                           const OracleRequest& request,
                           std::string_view study) {
  WireFrame frame;
  frame.type = static_cast<FrameType>(request.index());
  frame.request_id = request_id;
  frame.study = std::string(study);
  ByteWriter w;
  std::visit(RequestEncoder{w}, request);
  frame.payload = w.take();
  return encode_frame(frame);
}

std::string encode_response(std::uint64_t request_id,
                            const OracleResponse& response) {
  WireFrame frame;
  frame.type = static_cast<FrameType>(response.index() | 0x10);
  frame.request_id = request_id;
  ByteWriter w;
  std::visit(ResponseEncoder{w}, response);
  frame.payload = w.take();
  return encode_frame(frame);
}

std::string encode_error(std::uint64_t request_id, WireErrorCode code,
                         std::string_view message) {
  WireFrame frame;
  frame.type = FrameType::kError;
  frame.request_id = request_id;
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.str(message);
  frame.payload = w.take();
  return encode_frame(frame);
}

OracleRequest decode_request(const WireFrame& frame) {
  if (!is_request_frame(frame.type))
    fail(WireFault::kBadType,
         std::string(frame_type_name(frame.type)) + " is not a request");
  ByteReader r{frame.payload, std::string(kContext)};
  try {
    OracleRequest request = decode_request_payload(frame.type, r);
    IRP_CHECK(r.remaining() == 0, "wire: trailing bytes in request payload");
    return request;
  } catch (const WireDecodeError&) {
    throw;
  } catch (const CheckError& e) {
    fail(WireFault::kMalformedPayload, e.what());
  }
}

std::variant<OracleResponse, WireError> decode_reply(const WireFrame& frame) {
  if (!is_response_frame(frame.type) && frame.type != FrameType::kError)
    fail(WireFault::kBadType,
         std::string(frame_type_name(frame.type)) + " is not a reply");
  ByteReader r{frame.payload, std::string(kContext)};
  try {
    if (frame.type == FrameType::kError) {
      WireError err;
      const std::uint8_t code = r.u8();
      IRP_CHECK(code >= 1 && code <= 5, "wire: error code out of range");
      err.code = static_cast<WireErrorCode>(code);
      err.message = r.str();
      IRP_CHECK(r.remaining() == 0, "wire: trailing bytes in error payload");
      return err;
    }
    OracleResponse response = decode_response_payload(frame.type, r);
    IRP_CHECK(r.remaining() == 0, "wire: trailing bytes in response payload");
    return response;
  } catch (const WireDecodeError&) {
    throw;
  } catch (const CheckError& e) {
    fail(WireFault::kMalformedPayload, e.what());
  }
}

std::string hex_dump(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::ostringstream out;
  for (std::size_t line = 0; line < bytes.size(); line += 16) {
    const std::size_t n = std::min<std::size_t>(16, bytes.size() - line);
    char offset[24];
    std::snprintf(offset, sizeof offset, "%04zx", line);
    out << offset << "  ";
    for (std::size_t i = 0; i < 16; ++i) {
      if (i < n) {
        const unsigned char c = static_cast<unsigned char>(bytes[line + i]);
        out << kHex[c >> 4] << kHex[c & 0xf] << ' ';
      } else {
        out << "   ";
      }
      if (i == 7) out << ' ';
    }
    out << " |";
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned char c = static_cast<unsigned char>(bytes[line + i]);
      out << (c >= 0x20 && c < 0x7f ? static_cast<char>(c) : '.');
    }
    out << "|\n";
  }
  return out.str();
}

}  // namespace irp
