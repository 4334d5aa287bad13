#include "obs/artifact.h"

#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>

namespace fsdp::obs {

void WriteArtifactEnvelope(JsonWriter& w, const ArtifactMeta& meta) {
  w.Key("schema_version").Int(kArtifactSchemaVersion);
  w.Key("meta").BeginObject();
  w.Key("world_size").Int(meta.world_size);
  w.Key("ranks").Int(meta.ranks);
  w.Key("preset").String(meta.preset);
  w.EndObject();
}

Status ValidateArtifactJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::Invalid("artifact is not a JSON object");
  }
  if (!doc.Has("schema_version") || !doc["schema_version"].is_number()) {
    return Status::Invalid("artifact missing \"schema_version\"");
  }
  const int version = static_cast<int>(doc["schema_version"].AsNumber());
  if (version < 1) {
    return Status::Invalid("artifact schema_version " +
                           std::to_string(version) + " is not a version");
  }
  if (version > kArtifactSchemaVersion) {
    // A newer writer produced this document; the envelope promises backward
    // compatibility only, so reading it here would silently misinterpret
    // fields this reader has never heard of.
    return Status::Invalid(
        "artifact schema_version " + std::to_string(version) +
        " is newer than this reader (" +
        std::to_string(kArtifactSchemaVersion) +
        "): forward-incompatible document");
  }
  if (!doc.Has("meta") || !doc["meta"].is_object()) {
    return Status::Invalid("artifact missing \"meta\" object");
  }
  const JsonValue& meta = doc["meta"];
  for (const char* key : {"world_size", "ranks"}) {
    if (!meta.Has(key) || !meta[key].is_number()) {
      return Status::Invalid(std::string("artifact meta missing \"") +
                                     key + "\"");
    }
  }
  if (!meta.Has("preset") || !meta["preset"].is_string()) {
    return Status::Invalid("artifact meta missing \"preset\"");
  }
  return Status::OK();
}

namespace {

/// Returns `filename` on first use, "<stem>-N<ext>" on the Nth repeat.
std::string UniqueFilename(const std::string& filename) {
  static std::mutex mu;
  static std::map<std::string, int>* uses = new std::map<std::string, int>();
  int n;
  {
    std::lock_guard<std::mutex> lock(mu);
    n = ++(*uses)[filename];
  }
  if (n == 1) return filename;
  const size_t dot = filename.rfind('.');
  if (dot == std::string::npos || dot == 0) {
    return filename + "-" + std::to_string(n);
  }
  return filename.substr(0, dot) + "-" + std::to_string(n) +
         filename.substr(dot);
}

}  // namespace

std::string ArtifactPath(const std::string& filename) {
  namespace fs = std::filesystem;
  const std::string unique = UniqueFilename(filename);
  if (const char* dir = std::getenv("FSDP_ARTIFACT_DIR"); dir && *dir) {
    std::error_code ec;
    fs::create_directories(dir, ec);  // best effort; open reports failure
    return (fs::path(dir) / unique).string();
  }
  std::error_code ec;
  if (fs::is_directory("build", ec)) {
    return (fs::path("build") / unique).string();
  }
  return unique;
}

}  // namespace fsdp::obs
