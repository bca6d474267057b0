/**
 * @file
 * Length-prefixed frame protocol over POSIX file descriptors — the
 * wire layer of the distributed campaign (tuner/distrib).
 *
 * A frame is a fixed 24-byte header followed by the payload:
 *
 *   [u32 magic "GSFR"][u32 type][u64 payloadLen][u64 payloadHash]
 *   [payloadLen bytes]
 *
 * payloadHash = hashCombine(fnv1a(payload), type), so any single-byte
 * corruption — header or payload — is detected deterministically (the
 * fnv1a step function is injective per byte), and a flipped length
 * byte is bounded by kMaxFramePayload before anything is allocated.
 * Lengths above the cap (including anything that would be negative as
 * a signed 64-bit value) are rejected without reading the payload.
 *
 * Failure vocabulary:
 *  - readFrame returns false on a clean EOF at a frame boundary (the
 *    peer closed its end after the last complete frame);
 *  - everything else — bad magic, oversize length, checksum mismatch,
 *    EOF mid-frame ("short frame"), an I/O error — throws
 *    ProtocolError. A framed stream cannot be resynchronised after a
 *    corrupt prefix, so the caller must treat the peer as dead.
 *
 * Fault injection: `ipc.send` and `ipc.recv` are registered
 * support/fault sites. An armed ipc.send can throw before writing
 * (send failure) or tear the frame — write a strict prefix and then
 * throw, simulating a peer dying mid-send; the reader of that stream
 * later sees a short frame. An armed ipc.recv throws on the read path
 * (a receiver-side I/O failure). Both default to Mode::Throw in plans.
 */
#ifndef GSOPT_SUPPORT_IPC_H
#define GSOPT_SUPPORT_IPC_H

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gsopt::ipc {

/** Frame magic ("GSFR" little-endian). */
inline constexpr uint32_t kMagic = 0x52465347u;

/** Hard payload cap (256 MiB): anything larger — including a flipped
 * high length byte or a "negative" length — is a protocol error, not
 * an allocation. */
inline constexpr uint64_t kMaxFramePayload = 1ull << 28;

/** Header bytes on the wire. */
inline constexpr size_t kHeaderBytes = 24;

/** Unrecoverable framing failure: corrupt header, checksum mismatch,
 * short frame, or an I/O error on the descriptor. The stream is dead;
 * the peer must be reaped. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The checksum stored in a frame header for @p payload of @p type. */
uint64_t framePayloadHash(uint32_t type, std::string_view payload);

/** One decoded frame. */
struct Frame
{
    uint32_t type = 0;
    std::string payload;
};

/** Render a complete frame (header + payload) into a byte string —
 * the exact bytes writeFrame puts on the wire. Exposed for the frame
 * fuzzer and the in-memory decoder tests. */
std::string encodeFrame(uint32_t type, std::string_view payload);

/**
 * Write one frame to @p fd (blocking, restarting on EINTR). Throws
 * ProtocolError on any write failure (EPIPE included — the caller
 * treats the peer as dead) and std::invalid_argument on a payload
 * over kMaxFramePayload. Evaluates the `ipc.send` fault site: Throw
 * fails before any byte is written; Tear writes a strict prefix of
 * the frame and then throws, so the peer observes a short frame.
 */
void writeFrame(int fd, uint32_t type, std::string_view payload);

/**
 * Read one frame from @p fd (blocking). Returns false on clean EOF at
 * a frame boundary; throws ProtocolError on corruption, a short frame,
 * or a read failure. Evaluates the `ipc.recv` fault site before
 * touching the descriptor.
 */
bool readFrame(int fd, Frame &out);

/**
 * Incremental decoder for non-blocking readers: feed() whatever bytes
 * poll(2) surfaced, then drain complete frames with next(). Corruption
 * in the buffered prefix throws ProtocolError from next() — feed()
 * itself never throws, so a poll loop can buffer first and decide
 * later. midFrame() reports buffered-but-incomplete bytes, which at
 * EOF means the peer died mid-frame (a short frame).
 */
class FrameDecoder
{
  public:
    void feed(const char *data, size_t n) { buf_.append(data, n); }

    /** Decode the next complete frame into @p out. Returns false when
     * the buffer holds no complete frame yet. Throws ProtocolError on
     * a corrupt prefix (bad magic, oversize length, bad checksum). */
    bool next(Frame &out);

    /** Any buffered bytes short of a complete frame? */
    bool midFrame() const { return !buf_.empty(); }

  private:
    std::string buf_;
};

// ---- payload packing ----------------------------------------------------
// The one byte codec of frame payloads and shard files (tuner/
// experiment.h): host-order PODs and u64-length-prefixed strings.

/** Append-only payload builder. */
class Pack
{
  public:
    Pack &u32(uint32_t v) { return pod(v); }
    Pack &u64(uint64_t v) { return pod(v); }
    Pack &str(std::string_view s)
    {
        u64(s.size());
        bytes_.append(s.data(), s.size());
        return *this;
    }
    /** Append the raw bytes of a trivially copyable @p v. */
    template <typename T> Pack &pod(T v)
    {
        bytes_.append(reinterpret_cast<const char *>(&v), sizeof(v));
        return *this;
    }
    const std::string &bytes() const & { return bytes_; }
    std::string take() { return std::move(bytes_); }

  private:
    std::string bytes_;
};

/** Cursor-based payload reader; every getter returns false (leaving
 * the output untouched) once the payload is exhausted or a string
 * length overruns the remaining bytes. */
class Unpack
{
  public:
    explicit Unpack(std::string_view bytes) : bytes_(bytes) {}

    bool u32(uint32_t &v) { return pod(v); }
    bool u64(uint64_t &v) { return pod(v); }
    bool str(std::string &s)
    {
        uint64_t n = 0;
        if (!u64(n) || n > bytes_.size() - pos_)
            return false;
        s.assign(bytes_.data() + pos_, n);
        pos_ += n;
        return true;
    }
    /** Read the raw bytes of a trivially copyable @p v. */
    template <typename T> bool pod(T &v)
    {
        if (sizeof(T) > bytes_.size() - pos_)
            return false;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return true;
    }
    /** All bytes consumed? (Trailing garbage is a protocol bug.) */
    bool done() const { return pos_ == bytes_.size(); }

  private:
    std::string_view bytes_;
    size_t pos_ = 0;
};

} // namespace gsopt::ipc

#endif // GSOPT_SUPPORT_IPC_H
