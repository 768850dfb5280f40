#include "workloads/trace.hh"

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace mct
{

TraceWorkload::TraceWorkload(std::string name,
                             std::vector<WorkloadOp> operations,
                             unsigned mlp)
    : ops(std::move(operations))
{
    if (ops.empty())
        mct_fatal("TraceWorkload '", name, "': empty trace");
    tr.name = std::move(name);
    tr.mlp = mlp;
}

std::vector<WorkloadOp>
TraceWorkload::parse(std::istream &in)
{
    std::vector<WorkloadOp> out;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::uint64_t gap;
        std::string rw, addrTok, depTok;
        if (!(ls >> gap))
            continue; // blank line
        if (!(ls >> rw >> addrTok))
            mct_fatal("trace line ", lineNo, ": expected <gap> <R|W> "
                      "<addr>");
        WorkloadOp op;
        op.gap = static_cast<std::uint32_t>(gap);
        if (rw == "R" || rw == "r")
            op.isWrite = false;
        else if (rw == "W" || rw == "w")
            op.isWrite = true;
        else
            mct_fatal("trace line ", lineNo, ": op must be R or W");
        op.addr = static_cast<Addr>(
            std::stoull(addrTok, nullptr, 0));
        if (ls >> depTok) {
            if (depTok == "D" || depTok == "d")
                op.dependent = !op.isWrite;
            else
                mct_fatal("trace line ", lineNo,
                          ": trailing token must be D");
        }
        out.push_back(op);
    }
    return out;
}

std::unique_ptr<TraceWorkload>
TraceWorkload::fromFile(const std::string &path, unsigned mlp)
{
    std::ifstream in(path);
    if (!in)
        mct_fatal("cannot open trace file '", path, "'");
    auto ops = parse(in);
    if (ops.empty())
        mct_fatal("trace file '", path, "' contains no operations");
    return std::make_unique<TraceWorkload>(path, std::move(ops), mlp);
}

void
TraceWorkload::write(std::ostream &out,
                     const std::vector<WorkloadOp> &ops)
{
    out << "# gap R|W address [D]\n";
    for (const auto &op : ops) {
        out << op.gap << ' ' << (op.isWrite ? 'W' : 'R') << " 0x"
            << std::hex << op.addr << std::dec;
        if (op.dependent && !op.isWrite)
            out << " D";
        out << '\n';
    }
}

void
TraceWorkload::next(WorkloadOp &op)
{
    op = ops[cursor];
    op.addr += addrBase;
    if (++cursor == ops.size()) {
        cursor = 0;
        ++nLoops;
    }
}

void
TraceWorkload::reset(std::uint64_t)
{
    cursor = 0;
    nLoops = 0;
}

template <class Ar>
void
TraceWorkload::io(Ar &ar)
{
    // The operations themselves are reloaded from the trace file; the
    // count guards against replaying against a different trace.
    ar.check(ops.size(), "checkpoint trace length mismatch");
    ar.u64(addrBase, cursor);
    if (cursor >= ops.size())
        mct_panic("checkpoint trace cursor out of range");
    ar.u64(nLoops);
}

void
TraceWorkload::serialize(Serializer &s) const
{
    const_cast<TraceWorkload *>(this)->io(s);
}

void
TraceWorkload::deserialize(Deserializer &d)
{
    io(d);
}

std::vector<WorkloadOp>
captureTrace(Workload &source, std::size_t count)
{
    std::vector<WorkloadOp> out;
    out.reserve(count);
    WorkloadOp op;
    for (std::size_t i = 0; i < count; ++i) {
        source.next(op);
        out.push_back(op);
    }
    return out;
}

} // namespace mct
