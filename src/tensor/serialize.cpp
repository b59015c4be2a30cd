#include "tensor/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace upaq::io {

namespace {

constexpr char kMagic[8] = {'U', 'P', 'A', 'Q', 'T', 'N', 'S', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("tensor deserialize: truncated stream");
  return v;
}

}  // namespace

void write_tensor(std::ostream& os, const Tensor& t) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(t.rank()));
  for (std::size_t i = 0; i < t.rank(); ++i)
    write_pod<std::int64_t>(os, t.shape()[i]);
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(sizeof(float) * t.numel()));
}

Tensor read_tensor(std::istream& is) {
  const auto rank = read_pod<std::uint32_t>(is);
  if (rank > 8) throw std::runtime_error("tensor deserialize: absurd rank");
  Shape shape(rank);
  // Running element count, checked before every multiply: the byte count
  // (numel * sizeof(float)) must fit int64, or Tensor(shape) would overflow
  // computing its size before any allocation could fail cleanly.
  constexpr std::int64_t kMaxNumel =
      std::numeric_limits<std::int64_t>::max() /
      static_cast<std::int64_t>(sizeof(float));
  std::int64_t numel = 1;
  for (auto& d : shape) {
    d = read_pod<std::int64_t>(is);
    if (d < 0 || d > (1LL << 32))
      throw std::runtime_error("tensor deserialize: absurd dimension");
    if (d > 0 && numel > kMaxNumel / d)
      throw std::runtime_error("tensor deserialize: element count overflows");
    numel *= d;
  }
  Tensor t(shape);
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(sizeof(float) * t.numel()));
  if (!is) throw std::runtime_error("tensor deserialize: truncated data");
  return t;
}

void save_tensor_map(const std::string& path,
                     const std::map<std::string, Tensor>& tensors) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for write: " + path);
  os.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(os, kVersion);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, tensor] : tensors) {
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_tensor(os, tensor);
  }
  if (!os) throw std::runtime_error("write failed: " + path);
}

std::map<std::string, Tensor> load_tensor_map(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("not a UPAQ tensor map: " + path);
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kVersion)
    throw std::runtime_error("unsupported tensor map version in " + path);
  const auto count = read_pod<std::uint32_t>(is);
  std::map<std::string, Tensor> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto len = read_pod<std::uint32_t>(is);
    std::string name(len, '\0');
    is.read(name.data(), len);
    if (!is) throw std::runtime_error("truncated name in " + path);
    out.emplace(std::move(name), read_tensor(is));
  }
  return out;
}

bool is_tensor_map_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  char magic[8];
  is.read(magic, sizeof(magic));
  return is && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace upaq::io
