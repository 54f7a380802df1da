// Exception-safe reset for persistent stamp maps.
//
// The hot per-agent loops (view extraction, world materialization,
// growth-set rows) keep a global→local index map alive across calls
// with the invariant "all entries are −1 between calls" (byte stamp
// maps: "all 0") and restore it by re-walking the keys they stamped.
// CheckError is catchable, so the restore must run on the throw path
// too — otherwise a caller that catches and reuses the scratch silently
// reads stale indices. StampGuard does the restore in its destructor;
// construct it only after every key has been validated to be a legal
// map index.
#pragma once

#include <cstdint>
#include <vector>

namespace mmlp {

/// Resets map[key] = blank for every key on destruction. Index maps use
/// the default blank −1; membership stamp maps (one byte per id) use 0.
template <typename T>
class StampGuard {
 public:
  StampGuard(std::vector<T>& map, const std::vector<std::int32_t>& keys,
             T blank = static_cast<T>(-1))
      : map_(map), keys_(keys), blank_(blank) {}
  ~StampGuard() {
    for (const std::int32_t key : keys_) {
      map_[static_cast<std::size_t>(key)] = blank_;
    }
  }
  StampGuard(const StampGuard&) = delete;
  StampGuard& operator=(const StampGuard&) = delete;

 private:
  std::vector<T>& map_;
  const std::vector<std::int32_t>& keys_;
  T blank_;
};

}  // namespace mmlp
