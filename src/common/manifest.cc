#include "common/manifest.hh"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/json.hh"
#include "common/serialize.hh"

namespace mct
{

bool
checksumFile(const std::string &path, std::uint64_t &checksum,
             std::uint64_t &bytes)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    const std::string content = ss.str();
    checksum = fnv1a(content.data(), content.size());
    bytes = content.size();
    return true;
}

std::string
checksumHex(std::uint64_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return out;
}

std::string
manifestRunId(const std::string &fingerprint)
{
    return checksumHex(fnv1a(fingerprint.data(), fingerprint.size()));
}

std::string
manifestRelative(const std::string &manifestPath,
                 const std::string &artifactPath)
{
    const std::size_t slash = manifestPath.find_last_of('/');
    if (slash == std::string::npos)
        return artifactPath;
    const std::string dir = manifestPath.substr(0, slash + 1);
    if (artifactPath.compare(0, dir.size(), dir) == 0)
        return artifactPath.substr(dir.size());
    return artifactPath;
}

void
writeManifestJson(std::ostream &os, const RunManifest &m)
{
    std::vector<const ManifestArtifact *> order;
    order.reserve(m.artifacts.size());
    for (const ManifestArtifact &a : m.artifacts)
        order.push_back(&a);
    std::sort(order.begin(), order.end(),
              [](const ManifestArtifact *a, const ManifestArtifact *b) {
                  return a->path < b->path;
              });

    JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "mct-manifest-v1");
    w.kv("run_id", m.runId);
    w.kv("mode", m.mode);
    w.kv("app", m.app);
    w.kv("config", m.config);
    w.kv("seed", m.seed);
    w.kv("fault_plan", m.faultPlan);
    w.kv("fingerprint", m.fingerprint);
    w.key("artifacts").beginArray();
    for (const ManifestArtifact *a : order) {
        w.beginObject();
        w.kv("kind", a->kind);
        w.kv("schema", a->schema);
        w.kv("path", a->path);
        w.kv("bytes", a->bytes);
        w.kv("fnv1a", checksumHex(a->checksum));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace mct
