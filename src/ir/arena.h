/**
 * @file
 * Bump allocation for IR storage.
 *
 * The exploration phase clones and destroys thousands of Modules per
 * shader (one clone per applied pass in the flag tree). With heap-backed
 * IR every clone paid one allocation per instruction plus one per
 * operand/index/constant vector, and every destruction walked them all
 * back. Arena backing turns a module's storage into a handful of chunks:
 * allocation is pointer bumping, clone() is a near-linear block copy, and
 * destruction frees whole chunks without visiting instructions.
 *
 * Two pieces live here:
 *
 *  - Arena: a chunked bump allocator owned by each ir::Module. Objects
 *    placed in it must be trivially destructible (enforced by create());
 *    nothing is ever freed individually — dropping an instruction from a
 *    block simply unlinks it, and its memory stays valid (and stays
 *    *stable*: no later allocation can reuse the address) until the
 *    module dies. Passes that previously kept "graveyards" to pin
 *    replaced instructions alive rely on exactly this guarantee.
 *
 *  - InlineVec<T, N>: a fixed-capacity, trivially-copyable vector used
 *    for Instr operand/index/constant-lane lists. The IR's shapes are
 *    bounded by the vec4-wide type system (max 4 operands for Construct,
 *    4 swizzle indices, 4 constant lanes), so the lists inline into the
 *    instruction itself: no per-list heap allocation, and Instr becomes
 *    trivially destructible and trivially copyable — which is what lets
 *    Module::clone() copy instructions by value and only fix up
 *    pointers. Exceeding the capacity aborts loudly (it would mean a
 *    new opcode broke the vec4 bound, not a recoverable condition).
 */
#ifndef GSOPT_IR_ARENA_H
#define GSOPT_IR_ARENA_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace gsopt::ir {

[[noreturn]] void inlineVecOverflow(size_t capacity, size_t wanted);

/**
 * Fixed-capacity inline vector mirroring the std::vector surface the IR
 * code uses (indexing, range-for, push_back/clear/assign). Trivially
 * copyable and destructible by construction.
 */
template <typename T, unsigned N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "InlineVec holds trivially copyable elements only");
    static_assert(N <= 255,
                  "size_ is a uint8_t; larger N would wrap before the "
                  "overflow guard could fire");

  public:
    InlineVec() = default;
    InlineVec(std::initializer_list<T> init)
    {
        assign(init.begin(), init.end());
    }
    InlineVec(const std::vector<T> &v) { assign(v.begin(), v.end()); }

    InlineVec &operator=(std::initializer_list<T> init)
    {
        assign(init.begin(), init.end());
        return *this;
    }
    InlineVec &operator=(const std::vector<T> &v)
    {
        assign(v.begin(), v.end());
        return *this;
    }

    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    T *begin() { return items_; }
    T *end() { return items_ + size_; }
    const T *begin() const { return items_; }
    const T *end() const { return items_ + size_; }
    T *data() { return items_; }
    const T *data() const { return items_; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr size_t capacity() { return N; }

    T &operator[](size_t i) { return items_[i]; }
    const T &operator[](size_t i) const { return items_[i]; }
    T &front() { return items_[0]; }
    const T &front() const { return items_[0]; }
    T &back() { return items_[size_ - 1]; }
    const T &back() const { return items_[size_ - 1]; }

    void clear() { size_ = 0; }
    void push_back(const T &v)
    {
        if (size_ >= N)
            inlineVecOverflow(N, size_ + 1u);
        items_[size_++] = v;
    }
    void pop_back() { --size_; }

    template <typename It>
    void assign(It first, It last)
    {
        size_ = 0;
        for (; first != last; ++first)
            push_back(*first);
    }
    void assign(size_t n, const T &v)
    {
        if (n > N)
            inlineVecOverflow(N, n);
        size_ = static_cast<uint8_t>(n);
        for (size_t i = 0; i < n; ++i)
            items_[i] = v;
    }

    /** Call-site compatibility with the old std::vector members. */
    operator std::vector<T>() const
    {
        return std::vector<T>(begin(), end());
    }

    bool operator==(const InlineVec &o) const
    {
        if (size_ != o.size_)
            return false;
        for (size_t i = 0; i < size_; ++i) {
            if (!(items_[i] == o.items_[i]))
                return false;
        }
        return true;
    }
    bool operator!=(const InlineVec &o) const { return !(*this == o); }

  private:
    T items_[N];
    uint8_t size_ = 0;
};

/**
 * Chunked bump allocator. Not thread-safe (each Module owns one and
 * modules are never mutated concurrently). Move-only.
 */
class Arena
{
  public:
    Arena() = default;
    ~Arena() { releaseChunks(); }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    Arena(Arena &&o) noexcept { moveFrom(o); }
    Arena &operator=(Arena &&o) noexcept
    {
        if (this != &o) {
            releaseChunks();
            moveFrom(o);
        }
        return *this;
    }

    /** Raw bump allocation. @p align must be a power of two. */
    void *allocate(size_t size, size_t align)
    {
        char *p = alignUp(cursor_, align);
        // Signed headroom check: stays defined when the arena has no
        // chunk yet (all pointers null -> 0 headroom) and when
        // alignment pushed p past limit_ (negative headroom).
        if (limit_ - p < static_cast<std::ptrdiff_t>(size))
            return allocateSlow(size, align);
        cursor_ = p + size;
        used_ = static_cast<size_t>(cursor_ - chunkBase_) + priorUsed_;
        return p;
    }

    /** Placement-construct a trivially destructible T in the arena. */
    template <typename T, typename... Args>
    T *create(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed individually");
        void *p = allocate(sizeof(T), alignof(T));
        return new (p) T(std::forward<Args>(args)...);
    }

    /**
     * Placement-construct a T whose destructor the *caller* promises to
     * run before the arena dies (Module does this for its Vars, which
     * carry a name string and const-init vector). Everything else
     * should use create().
     */
    template <typename T, typename... Args>
    T *createWithCallerManagedDtor(Args &&...args)
    {
        void *p = allocate(sizeof(T), alignof(T));
        return new (p) T(std::forward<Args>(args)...);
    }

    /** Default-initialised array of trivially destructible T. */
    template <typename T>
    T *allocateArray(size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena objects are never destroyed individually");
        if (n == 0)
            return nullptr;
        void *p = allocate(sizeof(T) * n, alignof(T));
        return new (p) T[n];
    }

    /**
     * Size the *next* chunk to hold @p bytes contiguously — in both
     * directions: raised for a big module, and *lowered* below the
     * default chunk size for a small one (the caller knows the exact
     * footprint). clone() calls this with the source's bytesUsed() so
     * a cloned module lands in one right-sized chunk; without the
     * shrink, every small module memoized by the exploration tree
     * would hold a full kMinChunk.
     */
    void reserveHint(size_t bytes)
    {
        if (chunks_ == nullptr || bytes > nextChunkSize_)
            nextChunkSize_ = bytes < kAlignSlack ? kAlignSlack : bytes;
    }

    /** Bytes handed out (cumulative, including alignment padding). */
    size_t bytesUsed() const { return used_; }
    /** Bytes reserved from the system allocator across all chunks. */
    size_t bytesReserved() const { return reserved_; }
    size_t chunkCount() const { return chunkCount_; }

  private:
    struct ChunkHeader
    {
        ChunkHeader *next;
        size_t size; ///< payload bytes (header excluded)
    };

    static char *alignUp(char *p, size_t align)
    {
        auto v = reinterpret_cast<uintptr_t>(p);
        v = (v + align - 1) & ~(static_cast<uintptr_t>(align) - 1);
        return reinterpret_cast<char *>(v);
    }

    void *allocateSlow(size_t size, size_t align);
    void releaseChunks();
    void moveFrom(Arena &o);

    static constexpr size_t kMinChunk = 16 * 1024;
    static constexpr size_t kAlignSlack = 256;

    ChunkHeader *chunks_ = nullptr; ///< newest first
    char *chunkBase_ = nullptr;     ///< payload start of newest chunk
    char *cursor_ = nullptr;
    char *limit_ = nullptr;
    size_t priorUsed_ = 0; ///< bytes used in all full chunks
    size_t used_ = 0;
    size_t reserved_ = 0;
    size_t chunkCount_ = 0;
    size_t nextChunkSize_ = kMinChunk;
};

} // namespace gsopt::ir

#endif // GSOPT_IR_ARENA_H
