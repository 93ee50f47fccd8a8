// OracleWire: the framed binary protocol that carries RouteOracle queries
// between processes and hosts.
//
// A frame is a fixed 28-byte header followed by a checksummed payload:
//
//   offset size field
//        0    4 magic         0x57505249 ("IRPW" in little-endian order)
//        4    2 version       kWireVersion (1)
//        6    1 frame_type    FrameType
//        7    1 flags         reserved; must be 0 in version 1
//        8    8 request_id    client-chosen; echoed verbatim in the reply
//       16    4 payload_size  bytes after the header; <= max payload bound
//       20    8 checksum      fnv1a64(payload)
//       28    . payload       frame_type-specific encoding (docs/PROTOCOL.md)
//
// All integers are little-endian (the ByteWriter/ByteReader idiom shared
// with the oracle snapshot). Requests and responses carry the OracleService
// variants bit-for-bit: decoding an encoded request yields a struct that
// compares equal to the original, so a remote answer is byte-identical to
// the local one (test_wire proves round-trips; test_oracle_server proves
// end-to-end equality).
//
// Error handling is typed and total:
//   * try_decode_frame() rejects garbage as early as possible — bad magic,
//     unsupported version, unknown frame type, nonzero flags and oversized
//     payload_size all throw WireDecodeError from the header alone, before
//     any payload is buffered. A correct header with a corrupt payload fails
//     the checksum. Callers must treat the stream as poisoned after any
//     decode error (resynchronization is impossible by design).
//   * kError frames carry a WireErrorCode + message instead of an answer;
//     kOverloaded is the admission-control shed surfaced to the remote
//     caller, kMalformedRequest reports a payload the server could frame-
//     decode but not request-decode.
//
// Version policy: the protocol is versioned as a whole; a receiver accepts
// the closed range [kWireVersionMin, kWireVersion] and rejects the rest
// (kBadVersion). Version 2 carves the kWireFlagStudy bit out of the
// reserved flags byte: when set, the payload is prefixed with a
// length-delimited study id that routes the request to one of several
// studies hosted behind the endpoint (serve/study_catalog.hpp). Encoders
// emit the lowest version that can carry the frame — a frame with no study
// id is bit-for-bit identical to its version-1 encoding, so old clients
// and old servers interoperate against the default study unchanged.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "serve/oracle_service.hpp"
#include "util/check.hpp"

namespace irp {

/// "IRPW" in little-endian byte order.
inline constexpr std::uint32_t kWireMagic = 0x57505249u;
/// Highest protocol version this build speaks (and the version emitted for
/// frames that need version-2 features).
inline constexpr std::uint16_t kWireVersion = 2;
/// Lowest protocol version still accepted; version-1 frames are the
/// pre-multi-study encoding and always address the default study.
inline constexpr std::uint16_t kWireVersionMin = 1;
/// Version-2 flag bit: the payload starts with a length-delimited study id
/// (u32 length + bytes) addressing one study of a multi-study server. All
/// other flag bits remain reserved and must be 0.
inline constexpr std::uint8_t kWireFlagStudy = 0x01;
inline constexpr std::size_t kWireHeaderBytes = 28;
/// Default upper bound on payload_size; frames claiming more are rejected
/// from the header alone (kOversized), so a hostile peer cannot make the
/// receiver buffer unbounded data.
inline constexpr std::size_t kMaxWirePayload = 1u << 20;

/// Frame discriminator. Requests occupy 0x00-0x0f in QueryType order;
/// the matching response is `request | 0x10`; 0x20 is the error frame.
enum class FrameType : std::uint8_t {
  kClassifyRequest = 0x00,
  kAlternateRoutesRequest = 0x01,
  kPspVisibilityRequest = 0x02,
  kRelationshipLookupRequest = 0x03,
  kClassifyResponse = 0x10,
  kAlternateRoutesResponse = 0x11,
  kPspVisibilityResponse = 0x12,
  kRelationshipLookupResponse = 0x13,
  kError = 0x20,
};

bool is_request_frame(FrameType type);
bool is_response_frame(FrameType type);
std::string_view frame_type_name(FrameType type);

/// Application-level error codes carried by kError frames.
enum class WireErrorCode : std::uint8_t {
  kOverloaded = 1,        ///< Admission control shed the request; retryable.
  kMalformedRequest = 2,  ///< Request payload undecodable; not retryable.
  kShuttingDown = 3,      ///< Server is draining; retryable elsewhere/later.
  kInternal = 4,          ///< Evaluation threw; not retryable.
  kUnknownStudy = 5,      ///< Study id matches no hosted study; not retryable.
};
std::string_view wire_error_code_name(WireErrorCode code);

/// What exactly was wrong with undecodable bytes.
enum class WireFault : std::uint8_t {
  kBadMagic,          ///< First four bytes are not "IRPW".
  kBadVersion,        ///< Unsupported protocol version.
  kBadFlags,          ///< Reserved flags byte nonzero.
  kBadType,           ///< Unknown FrameType.
  kOversized,         ///< payload_size exceeds the receiver's bound.
  kChecksumMismatch,  ///< Payload bytes do not hash to the header checksum.
  kMalformedPayload,  ///< Frame sound, payload encoding invalid for its type.
};
std::string_view wire_fault_name(WireFault fault);

/// Thrown by every wire decode path; `fault()` says which rule the bytes
/// broke. Subclasses CheckError so existing catch sites keep working.
class WireDecodeError : public CheckError {
 public:
  WireDecodeError(WireFault fault, const std::string& what)
      : CheckError(what), fault_(fault) {}
  WireFault fault() const { return fault_; }

 private:
  WireFault fault_;
};

/// One parsed frame: type + request id + raw (already checksum-verified)
/// payload bytes. `study` is the multi-study routing id ("" = default
/// study); it rides in a version-2 payload prefix, never in `payload`.
struct WireFrame {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::string study;
  std::string payload;
};

/// The content of a kError frame.
struct WireError {
  WireErrorCode code = WireErrorCode::kInternal;
  std::string message;
};

// -- Frame layer.

/// Serializes header + payload (checksum computed here). An empty
/// `frame.study` produces the version-1 encoding; a nonempty one produces a
/// version-2 frame with kWireFlagStudy set and the study id prefixed to the
/// payload (the checksum and payload_size cover the prefix).
std::string encode_frame(const WireFrame& frame);

/// Incremental stream decoder over `buffer` starting at `offset`: returns
/// nullopt when the bytes from `offset` on do not yet hold a complete frame
/// (read more bytes and call again); on success `offset` advances past the
/// frame. Throws WireDecodeError the moment the buffered bytes are provably
/// not a valid frame — from the header alone where possible; a frame whose
/// checksum passed but whose study-id prefix does not decode is consumed
/// (`offset` advanced) before the throw. A reader that decodes a pipelined
/// burst this way and compacts its buffer once per read pays time linear
/// in the bytes received.
std::optional<WireFrame> try_decode_frame_at(
    std::string_view buffer, std::size_t& offset,
    std::size_t max_payload = kMaxWirePayload);

/// try_decode_frame_at() from the front of `buffer`; on success the frame's
/// bytes are erased from the front of `buffer`.
std::optional<WireFrame> try_decode_frame(
    std::string& buffer, std::size_t max_payload = kMaxWirePayload);

// -- Message layer.

/// Encodes a request frame; a nonempty `study` routes it to that study on a
/// multi-study server (version-2 frame), "" keeps the version-1 encoding.
std::string encode_request(std::uint64_t request_id,
                           const OracleRequest& request,
                           std::string_view study = {});
std::string encode_response(std::uint64_t request_id,
                            const OracleResponse& response);
std::string encode_error(std::uint64_t request_id, WireErrorCode code,
                         std::string_view message);

/// Decodes a request frame; throws WireDecodeError (kBadType for non-request
/// frames, kMalformedPayload for invalid encodings).
OracleRequest decode_request(const WireFrame& frame);

/// Decodes a server reply: either a typed response or a WireError. Throws
/// WireDecodeError on request frames and invalid encodings.
std::variant<OracleResponse, WireError> decode_reply(const WireFrame& frame);

/// Canonical `offset: hex |ascii|` rendering (16 bytes per line); the
/// wire_dump helper builds the PROTOCOL.md worked example from this.
std::string hex_dump(std::string_view bytes);

}  // namespace irp
