// Little-endian primitives of the wire formats: every integer the repo puts
// on the wire or on disk is little-endian. Loads and stores go through
// std::memcpy (a single mov on x86/ARM) rather than byte-at-a-time shift
// loops; big-endian hosts byte-swap after the copy. The Put* writers append
// to a std::string; Store* patches bytes already written (a length prefix
// reserved before its payload was known).

#ifndef LDP_UTIL_LITTLE_ENDIAN_H_
#define LDP_UTIL_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace ldp::internal_wire {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline uint16_t ToLittleEndian(uint16_t v) { return __builtin_bswap16(v); }
inline uint32_t ToLittleEndian(uint32_t v) { return __builtin_bswap32(v); }
inline uint64_t ToLittleEndian(uint64_t v) { return __builtin_bswap64(v); }
#else
inline uint16_t ToLittleEndian(uint16_t v) { return v; }
inline uint32_t ToLittleEndian(uint32_t v) { return v; }
inline uint64_t ToLittleEndian(uint64_t v) { return v; }
#endif

template <typename T>
inline T LoadLittleEndian(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return ToLittleEndian(value);
}

template <typename T>
inline void StoreLittleEndian(char* data, T value) {
  const T wire = ToLittleEndian(value);
  std::memcpy(data, &wire, sizeof(T));
}

template <typename T>
inline void PutLittleEndian(std::string* out, T value) {
  const T wire = ToLittleEndian(value);
  out->append(reinterpret_cast<const char*>(&wire), sizeof(T));
}

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU16(std::string* out, uint16_t value) {
  PutLittleEndian(out, value);
}

inline void PutU32(std::string* out, uint32_t value) {
  PutLittleEndian(out, value);
}

inline void PutU64(std::string* out, uint64_t value) {
  PutLittleEndian(out, value);
}

inline void PutF64(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(out, bits);
}

}  // namespace ldp::internal_wire

#endif  // LDP_UTIL_LITTLE_ENDIAN_H_
