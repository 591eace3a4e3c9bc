// ReadBuffer: the receive side of one connection — bytes pulled off the
// socket in large reads, consumed from the front as whole protocol messages
// (u8 type, u32 length, payload; net/protocol.h) are parsed out of them.
// Callers read a message's payload as a view into the buffer, so batching
// the reads adds no copy: a message larger than one read is received in
// place up to its end, and parsed messages are never moved.
//
// Not thread-safe; owned by whoever reads the socket.

#ifndef LDP_NET_READ_BUFFER_H_
#define LDP_NET_READ_BUFFER_H_

#include <cstddef>
#include <cstring>
#include <string>

namespace ldp::net {

class ReadBuffer {
 public:
  /// Unconsumed bytes.
  const char* data() const { return bytes_.data() + begin_; }
  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }

  /// Space for at least `n` more bytes after the unconsumed ones: compacts
  /// the unconsumed tail to the front only when the space past it is too
  /// small, and grows only when the whole buffer is. Returns where the next
  /// bytes go; Commit the count actually written.
  char* Reserve(size_t n) {
    if (bytes_.size() - end_ < n) {
      const size_t held = size();
      if (bytes_.size() < held + n) {
        std::string grown(held + n, '\0');
        std::memcpy(grown.data(), data(), held);
        bytes_.swap(grown);
      } else {
        std::memmove(bytes_.data(), data(), held);
      }
      begin_ = 0;
      end_ = held;
    }
    return bytes_.data() + end_;
  }
  void Commit(size_t n) { end_ += n; }

  /// Drops `n` bytes from the front (n <= size()).
  void Consume(size_t n) {
    begin_ += n;
    if (begin_ == end_) begin_ = end_ = 0;
  }

 private:
  std::string bytes_;  // size() is the capacity; [begin_, end_) is held
  size_t begin_ = 0;
  size_t end_ = 0;
};

}  // namespace ldp::net

#endif  // LDP_NET_READ_BUFFER_H_
