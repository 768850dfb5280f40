#include "sim/fault_injector.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "sim/system.hh"

namespace mct
{

FaultInjector::FaultInjector(const FaultPlan &plan, std::uint64_t seed)
    : plan_(plan), rng(seed), wasActive(plan.specs.size(), false)
{
}

void
FaultInjector::registerStats(StatRegistry &reg,
                             const std::string &prefix)
{
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        reg.addCounter(prefix + ".injected." + toString(kind),
                       [this, kind] { return injected(kind); },
                       "window armings / stochastic firings");
    }
    reg.addCounter(prefix + ".injected.total",
                   [this] { return injectedTotal(); });
    reg.addGauge(prefix + ".active",
                 [this] { return static_cast<double>(activeCount()); },
                 "fault-plan specs currently armed");
}

std::uint64_t
FaultInjector::injected(FaultKind kind) const
{
    return nInjected[static_cast<std::size_t>(kind)];
}

std::uint64_t
FaultInjector::injectedTotal() const
{
    std::uint64_t total = 0;
    for (const auto n : nInjected)
        total += n;
    return total;
}

std::size_t
FaultInjector::activeCount() const
{
    const InstCount inst = instNow();
    std::size_t n = 0;
    for (const auto &s : plan_.specs)
        n += s.activeAt(inst) ? 1 : 0;
    return n;
}

void
FaultInjector::poll(System &sys)
{
    const InstCount inst = instNow();
    bool changed = false;
    for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
        const FaultSpec &s = plan_.specs[i];
        const bool active = s.activeAt(inst);
        if (active == wasActive[i])
            continue;
        wasActive[i] = active;
        changed = true;
        if (active)
            ++nInjected[static_cast<std::size_t>(s.kind)];
        if (trace)
            trace->record(TraceEventType::FaultInjected,
                          static_cast<double>(s.kind),
                          active ? 1.0 : 0.0, s.magnitude);
    }
    if (!changed)
        return;

    // Recompute the full degradation state from armed windows. Window
    // effects compose multiplicatively when they overlap.
    const unsigned banks = sys.device().numBanks();
    std::vector<double> latF(banks, 1.0);
    std::vector<double> wearF(banks, 1.0);
    double skew = 1.0;
    for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
        if (!wasActive[i])
            continue;
        const FaultSpec &s = plan_.specs[i];
        switch (s.kind) {
          case FaultKind::LatencyDrift:
            for (auto &f : latF)
                f *= s.magnitude;
            break;
          case FaultKind::BankDegrade:
            for (unsigned b = 0; b < banks; ++b) {
                if (s.bank >= 0 && static_cast<unsigned>(s.bank) != b)
                    continue;
                latF[b] *= s.magnitude;
                wearF[b] *= s.magnitude;
            }
            break;
          case FaultKind::WearClockSkew:
            skew *= s.magnitude;
            break;
          default:
            break; // stochastic kinds are sampled on demand
        }
    }
    for (unsigned b = 0; b < banks; ++b)
        sys.device().setBankDegradation(static_cast<int>(b), latF[b],
                                        wearF[b]);
    sys.controller().setQuotaClockSkew(skew);
}

double
FaultInjector::garbleValue(double v, double mag)
{
    switch (rng.below(5)) {
      case 0:
        return std::numeric_limits<double>::quiet_NaN();
      case 1:
        return std::numeric_limits<double>::infinity();
      case 2:
        return -std::numeric_limits<double>::infinity();
      case 3:
        return -v; // sign flip (plausible-looking garbage)
      default:
        return v * rng.uniform(0.0, mag) + mag; // wild outlier
    }
}

bool
FaultInjector::corruptMetrics(Metrics &m)
{
    bool corrupted = false;
    forEachArmed(FaultKind::CounterCorrupt, [&](const FaultSpec &s) {
        if (!rng.flip(s.prob))
            return;
        switch (rng.below(3)) {
          case 0: m.ipc = garbleValue(m.ipc, s.magnitude); break;
          case 1:
            m.lifetimeYears = garbleValue(m.lifetimeYears, s.magnitude);
            break;
          default:
            m.energyJ = garbleValue(m.energyJ, s.magnitude);
            break;
        }
        ++nInjected[static_cast<std::size_t>(FaultKind::CounterCorrupt)];
        corrupted = true;
    });
    return corrupted;
}

bool
FaultInjector::predictorGarbageArmed() const
{
    bool armed = false;
    forEachArmed(FaultKind::PredictorGarbage,
                 [&](const FaultSpec &) { armed = true; });
    return armed;
}

std::size_t
FaultInjector::corruptPredictions(std::vector<double> &ratios)
{
    std::size_t corrupted = 0;
    forEachArmed(FaultKind::PredictorGarbage, [&](const FaultSpec &s) {
        for (auto &r : ratios) {
            if (!rng.flip(s.prob))
                continue;
            r = garbleValue(r, s.magnitude);
            ++corrupted;
        }
    });
    if (corrupted) {
        nInjected[static_cast<std::size_t>(FaultKind::PredictorGarbage)]
            += corrupted;
    }
    return corrupted;
}

bool
FaultInjector::corruptCsvFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string body = buf.str();
    in.close();
    if (body.empty())
        return false;

    // Truncate mid-row somewhere past the start, then append a line
    // of non-numeric junk: both failure modes loaders must survive.
    const std::size_t keep =
        body.size() / 2 + rng.below(body.size() / 2);
    body.resize(keep);
    body += "\ncorrupt,not-a-number,###,nan?,";

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << body;
    ++nInjected[static_cast<std::size_t>(FaultKind::SweepCacheCorrupt)];
    mct_warn("fault injector corrupted '", path, "' (", keep,
             " of ", buf.str().size(), " bytes kept)");
    return static_cast<bool>(out);
}

bool
FaultInjector::corruptCheckpointFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string body = buf.str();
    in.close();
    if (body.size() < 16)
        return false;

    std::size_t keep = body.size();
    if (rng.flip(0.5)) {
        // Truncation: the checksum footer (and possibly more) is gone.
        keep = body.size() / 2 + rng.below(body.size() / 4);
        body.resize(keep);
    } else {
        // Bit rot: flip a handful of payload bits; the FNV footer no
        // longer matches.
        for (int i = 0; i < 8; ++i) {
            const std::size_t at = rng.below(body.size());
            body[at] = static_cast<char>(
                static_cast<unsigned char>(body[at]) ^
                (1u << rng.below(8)));
        }
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << body;
    ++nInjected[static_cast<std::size_t>(FaultKind::CkptCorrupt)];
    mct_warn("fault injector corrupted checkpoint '", path, "' (",
             keep, " of ", buf.str().size(), " bytes kept)");
    return static_cast<bool>(out);
}

template <class Ar>
void
FaultInjector::io(Ar &ar)
{
    rng.io(ar);
    ar.check(wasActive.size(), "checkpoint fault-plan size mismatch");
    for (auto &&active : wasActive)
        ar.flag(active);
    for (std::uint64_t &n : nInjected)
        ar.u64(n);
}

void
FaultInjector::serialize(Serializer &s) const
{
    const_cast<FaultInjector *>(this)->io(s);
}

void
FaultInjector::deserialize(Deserializer &d)
{
    io(d);
}

} // namespace mct
