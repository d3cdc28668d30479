#include "common/codec.h"

#include <array>

namespace aodb {

void BufWriter::PutFixed32(uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  buf_.append(b, 4);
}

void BufWriter::PutFixed64(uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  buf_.append(b, 8);
}

void BufWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void BufWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutFixed64(bits);
}

void BufWriter::PutString(const std::string& s) {
  PutVarint(s.size());
  buf_.append(s);
}

void BufWriter::PutBytes(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

Status BufReader::GetU8(uint8_t* out) {
  if (remaining() < 1) return Status::Corruption("truncated u8");
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BufReader::GetFixed32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  std::memcpy(out, data_.data() + pos_, 4);
  pos_ += 4;
  return Status::OK();
}

Status BufReader::GetFixed64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  std::memcpy(out, data_.data() + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

Status BufReader::GetVarint(uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  size_t p = pos_;
  while (p < data_.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(data_[p++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      pos_ = p;
      *out = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::Corruption("truncated or overlong varint");
}

Status BufReader::GetSigned(int64_t* out) {
  uint64_t raw = 0;
  AODB_RETURN_NOT_OK(GetVarint(&raw));
  *out = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return Status::OK();
}

Status BufReader::GetDouble(double* out) {
  uint64_t bits = 0;
  AODB_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(out, &bits, 8);
  return Status::OK();
}

Status BufReader::GetBool(bool* out) {
  uint8_t v = 0;
  AODB_RETURN_NOT_OK(GetU8(&v));
  *out = v != 0;
  return Status::OK();
}

Status BufReader::GetString(std::string* out) {
  uint64_t len = 0;
  AODB_RETURN_NOT_OK(GetVarint(&len));
  if (remaining() < len) return Status::Corruption("truncated string");
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][i] is the CRC of byte i followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeCrcTables() {
  constexpr uint32_t kPoly = 0x82f63b78u;  // Castagnoli, reflected.
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

/// Little-endian 32-bit load at any alignment (one plain load on x86).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len) {
  const auto& t = kCrcTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Crc32c(const std::string& s) { return Crc32c(s.data(), s.size()); }

}  // namespace aodb
