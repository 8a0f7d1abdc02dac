#include "seq/alphabet.h"

#include "util/string_util.h"

namespace cluseq {

Alphabet Alphabet::FromChars(std::string_view chars) {
  Alphabet a;
  for (char c : chars) {
    a.Intern(std::string_view(&c, 1));
  }
  return a;
}

Alphabet Alphabet::Synthetic(size_t n) {
  static constexpr std::string_view kChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  Alphabet a;
  for (size_t i = 0; i < n; ++i) {
    if (n <= kChars.size()) {
      a.Intern(kChars.substr(i, 1));
    } else {
      a.Intern("s" + std::to_string(i));
    }
  }
  return a;
}

SymbolId Alphabet::Intern(std::string_view name) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

SymbolId Alphabet::Find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  return it == index_.end() ? kInvalidSymbol : it->second;
}

Status Alphabet::EncodeChars(std::string_view text, bool intern_missing,
                             std::vector<SymbolId>* out) {
  out->clear();
  out->reserve(text.size());
  for (char c : text) {
    std::string_view name(&c, 1);
    SymbolId id = Find(name);
    if (id == kInvalidSymbol) {
      if (!intern_missing) {
        return Status::InvalidArgument(
            StringPrintf("symbol '%c' not in alphabet", c));
      }
      id = Intern(name);
    }
    out->push_back(id);
  }
  return Status::OK();
}

void Alphabet::Truncate(size_t n) {
  while (names_.size() > n) {
    index_.erase(names_.back());
    names_.pop_back();
  }
}

std::string Alphabet::Decode(std::span<const SymbolId> ids) const {
  std::string out;
  for (SymbolId id : ids) {
    if (id < names_.size()) out += names_[id];
  }
  return out;
}

}  // namespace cluseq
