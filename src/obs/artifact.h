// Generated-artifact conventions shared by every run artifact (BENCH_*.json
// from the fig benches, PROFILE_*.json from the profiler, TUNE_*.json from
// the autotuner, FLIGHT_*.json from the flight recorder, RECOVERY_*.json
// from the elastic driver), all rendered by obs::JsonWriter.
//
// Three concerns live here:
//
//   * ArtifactPath resolves WHERE an artifact lands ($FSDP_ARTIFACT_DIR,
//     else ./build, else cwd) and guarantees that two dumps of the same
//     filename in one process never silently overwrite each other — repeat
//     requests get an atomic per-filename run counter suffixed into the stem
//     ("PROFILE_x.json", "PROFILE_x-2.json", ...).
//   * ArtifactMeta + kArtifactSchemaVersion stamp every artifact with a
//     shared schema version and run metadata (world size, producing ranks,
//     preset), so bench rows and step profiles from the same run are
//     joinable offline.
//   * ValidateArtifactJson checks the envelope on a parsed document; tests
//     and the smoke binaries run it on everything they write, making a
//     malformed or unversioned artifact a test failure.
#pragma once

#include <string>

#include "common/status.h"
#include "obs/json.h"

namespace fsdp::obs {

/// Version of the shared artifact envelope. Bump when the envelope (not a
/// writer's payload) changes shape.
inline constexpr int kArtifactSchemaVersion = 1;

/// Run metadata stamped into every versioned artifact.
struct ArtifactMeta {
  int world_size = 1;          // ranks in the run
  int ranks = 1;               // ranks that contributed data to the artifact
  std::string preset = "default";  // bench/test configuration name
};

/// Writes the envelope members into the object `w` has open:
///   "schema_version": 1, "meta": {"world_size": W, "ranks": R, "preset": P}
void WriteArtifactEnvelope(JsonWriter& w, const ArtifactMeta& meta);

/// Validates the shared envelope on a parsed artifact: a top-level
/// "schema_version" in [1, kArtifactSchemaVersion] and a "meta" object
/// carrying world_size / ranks / preset. Documents written by a NEWER
/// envelope version are rejected as forward-incompatible — this reader
/// cannot know what their extra/renamed fields mean — while any older
/// in-range version remains readable (the envelope only grows).
Status ValidateArtifactJson(const JsonValue& doc);

/// Resolves where a generated artifact (bench JSON, exported trace, profile)
/// should land: $FSDP_ARTIFACT_DIR if set (created if missing), else ./build
/// when it exists (the common run-from-source-root case), else the current
/// directory. Keeps runtime output out of the source tree.
///
/// Collision-safe: the first request for a given filename returns it
/// verbatim; the Nth repeat request in the same process returns the stem
/// suffixed with "-N" ("FLIGHT_x.json" → "FLIGHT_x-2.json"), so repeated
/// dumps from one process never overwrite earlier ones.
std::string ArtifactPath(const std::string& filename);

}  // namespace fsdp::obs
