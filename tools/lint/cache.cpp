#include "cache.hpp"

#include <cstdlib>
#include <fstream>
#include <vector>

namespace hcep::lint {
namespace {

constexpr const char* kMagic = "hcep-lint-cache v3";

/// One-line escaping for free-text fields (messages may contain
/// backticks, never newlines or tabs — but escape both anyway).
std::string esc(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '\t') out += "\\t";
    else out.push_back(c);
  }
  return out;
}

std::string unesc(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 >= s.size()) {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    if (s[i] == 'n') out.push_back('\n');
    else if (s[i] == 't') out.push_back('\t');
    else out.push_back(s[i]);
  }
  return out;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ResultCache ResultCache::load(const std::string& path) {
  ResultCache cache;
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return cache;
  Entry* current = nullptr;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split_tabs(line);
    if (f.empty()) continue;
    if (f[0] == "file" && f.size() == 6) {
      Entry e;
      e.key.size = std::strtoull(f[2].c_str(), nullptr, 10);
      e.key.mtime_ns = std::strtoll(f[3].c_str(), nullptr, 10);
      e.key.content_hash = std::strtoull(f[4].c_str(), nullptr, 16);
      e.facts.path = unesc(f[1]);
      e.facts.uses_shard_markers = f[5] == "1";
      current = &cache.entries_.emplace(e.facts.path, std::move(e))
                     .first->second;
    } else if (current == nullptr) {
      continue;
    } else if (f[0] == "inc" && f.size() == 2) {
      current->facts.includes.push_back(unesc(f[1]));
    } else if (f[0] == "ms" && f.size() == 3) {
      current->facts.mutable_statics.push_back(
          {std::strtoull(f[1].c_str(), nullptr, 10), unesc(f[2])});
    } else if (f[0] == "finding" && f.size() == 4) {
      current->facts.findings.push_back(
          {current->facts.path, std::strtoull(f[1].c_str(), nullptr, 10),
           unesc(f[2]), unesc(f[3])});
    }
  }
  return cache;
}

std::optional<FileFacts> ResultCache::lookup(const std::string& relpath,
                                             const CacheKey& key) const {
  const auto it = entries_.find(relpath);
  if (it == entries_.end()) return std::nullopt;
  const CacheKey& k = it->second.key;
  const bool mtime_hit = k.size == key.size && k.mtime_ns == key.mtime_ns;
  if (!mtime_hit && k.content_hash != key.content_hash) return std::nullopt;
  if (k.size != key.size) return std::nullopt;
  return it->second.facts;
}

void ResultCache::store(const std::string& relpath, const CacheKey& key,
                        const FileFacts& facts) {
  entries_[relpath] = Entry{key, facts};
}

bool ResultCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << kMagic << "\n";
  for (const auto& [rel, e] : entries_) {
    out << "file\t" << esc(rel) << "\t" << e.key.size << "\t"
        << e.key.mtime_ns << "\t" << std::hex << e.key.content_hash
        << std::dec << "\t" << (e.facts.uses_shard_markers ? 1 : 0) << "\n";
    for (const auto& inc : e.facts.includes) out << "inc\t" << esc(inc) << "\n";
    for (const auto& ms : e.facts.mutable_statics)
      out << "ms\t" << ms.line << "\t" << esc(ms.name) << "\n";
    for (const auto& f : e.facts.findings)
      out << "finding\t" << f.line << "\t" << esc(f.rule) << "\t"
          << esc(f.message) << "\n";
  }
  return static_cast<bool>(out);
}

}  // namespace hcep::lint
