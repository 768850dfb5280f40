/**
 * @file
 * Run manifests: the self-description a run leaves next to its
 * telemetry artifacts.
 *
 * Every mct_sim invocation (and every bench main through the harness)
 * publishes an mct-manifest-v1 JSON naming the run — mode, app,
 * config, seed, fault plan, checkpoint fingerprint — and listing
 * every artifact it produced with the artifact's relative path, size
 * and FNV-1a checksum. A directory of runs thereby becomes a
 * self-describing corpus: `mct_report aggregate` scans the manifests,
 * re-checksums the artifacts (a mismatch is a named integrity error),
 * and merges the runs into one fleet document without guessing which
 * file belongs to which run.
 *
 * The run id is derived from the run fingerprint, never from wall
 * time, so identically-configured runs produce identical manifests
 * and the whole corpus stays byte-reproducible.
 */

#ifndef MCT_COMMON_MANIFEST_HH
#define MCT_COMMON_MANIFEST_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mct
{

/** One artifact a run produced, as listed in its manifest. */
struct ManifestArtifact
{
    std::string kind;   ///< stats, spans, host, timeline, alerts, ...
    std::string schema; ///< document schema ("" for JSONL/Chrome dumps)
    std::string path;   ///< relative to the manifest's directory
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0; ///< FNV-1a over the artifact's bytes
};

/** Everything an mct-manifest-v1 document records about one run. */
struct RunManifest
{
    std::string runId; ///< deterministic id (see manifestRunId)
    std::string mode;
    std::string app;
    std::string config;
    std::uint64_t seed = 0;
    std::string faultPlan;   ///< fault-plan spec ("" when none)
    std::string fingerprint; ///< run identity (checkpoint fingerprint)
    std::vector<ManifestArtifact> artifacts;
};

/**
 * FNV-1a checksum and size of a file's raw bytes. Returns false
 * (leaving the outputs untouched) when the file cannot be read.
 */
[[nodiscard]] bool checksumFile(const std::string &path,
                                std::uint64_t &checksum,
                                std::uint64_t &bytes);

/** 16-digit lowercase hex spelling of a checksum. */
std::string checksumHex(std::uint64_t v);

/** Deterministic run id: FNV-1a of the fingerprint string, in hex. */
std::string manifestRunId(const std::string &fingerprint);

/**
 * @p artifactPath relative to the directory holding
 * @p manifestPath: a shared leading directory is stripped; paths
 * outside that directory are kept verbatim (the consumer resolves
 * relative entries against the manifest's directory either way).
 */
std::string manifestRelative(const std::string &manifestPath,
                             const std::string &artifactPath);

/**
 * Emit @p m as an mct-manifest-v1 document. Artifacts are sorted by
 * path so the bytes never depend on emission order.
 */
void writeManifestJson(std::ostream &os, const RunManifest &m);

} // namespace mct

#endif // MCT_COMMON_MANIFEST_HH
