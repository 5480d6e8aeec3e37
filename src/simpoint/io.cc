#include "simpoint/io.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "util/logging.hh"

namespace xbsp::sp
{

void
writeBbvFile(std::ostream& os, const FrequencyVectorSet& fvs)
{
    // %.17g guarantees strtod() recovers the exact double on read —
    // the text BBV path round-trips bit-for-bit like the binary store.
    char buf[64];
    for (const SparseVec& vec : fvs.vectors) {
        os << "T";
        for (const auto& [idx, val] : vec) {
            std::snprintf(buf, sizeof(buf), "%.17g", val);
            os << ":" << (idx + 1) << ":" << buf << " ";
        }
        os << "\n";
    }
}

FrequencyVectorSet
readBbvFile(std::istream& is, u32 dimensionHint)
{
    struct RawInterval
    {
        SparseVec vec;
    };
    std::vector<RawInterval> raw;
    u32 maxIdx = 0;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] != 'T')
            fatal("bb file line {}: expected 'T' prefix", lineNo);
        RawInterval interval;
        std::size_t pos = 1;
        while (pos < line.size()) {
            if (line[pos] == ' ') {
                ++pos;
                continue;
            }
            if (line[pos] != ':')
                fatal("bb file line {}: expected ':' at column {}",
                      lineNo, pos);
            ++pos;
            // strtoul() would accept a sign or leading blanks (and
            // negate "-1" into a huge index), so require a digit.
            char* end = nullptr;
            const bool digit =
                pos < line.size() &&
                std::isdigit(static_cast<unsigned char>(line[pos]));
            const unsigned long long idx =
                digit ? std::strtoull(line.c_str() + pos, &end, 10) : 0;
            if (!digit || *end != ':' || idx == 0 ||
                idx > std::numeric_limits<u32>::max())
                fatal("bb file line {}: bad dimension index", lineNo);
            if (idx > maxBbvDimension)
                fatal("bb file line {}: dimension index {} is above the "
                      "cap of {}", lineNo, idx, maxBbvDimension);
            pos = static_cast<std::size_t>(end - line.c_str()) + 1;
            const double val = std::strtod(line.c_str() + pos, &end);
            if (end == line.c_str() + pos)
                fatal("bb file line {}: bad value", lineNo);
            if (!std::isfinite(val))
                fatal("bb file line {}: non-finite value", lineNo);
            if (val < 0.0)
                fatal("bb file line {}: negative count", lineNo);
            pos = static_cast<std::size_t>(end - line.c_str());
            interval.vec.emplace_back(static_cast<u32>(idx - 1), val);
            maxIdx = std::max(maxIdx, static_cast<u32>(idx - 1));
        }
        std::sort(interval.vec.begin(), interval.vec.end());
        // Merge duplicate dimension entries (SimPoint frequency
        // semantics: repeated ids on one line accumulate).
        SparseVec merged;
        double total = 0.0;
        for (const auto& [idx, val] : interval.vec) {
            if (!merged.empty() && merged.back().first == idx)
                merged.back().second += val;
            else
                merged.emplace_back(idx, val);
            total += val;
        }
        // Counts are non-negative, so an overflowing merged entry
        // overflows the total too.
        if (!std::isfinite(total))
            fatal("bb file line {}: line total is not finite", lineNo);
        interval.vec = std::move(merged);
        raw.push_back(std::move(interval));
    }

    FrequencyVectorSet fvs;
    fvs.dimension = std::max(dimensionHint, maxIdx + 1);
    for (RawInterval& interval : raw)
        fvs.addInterval(std::move(interval.vec), 1);
    return fvs;
}

void
writeLengthsFile(std::ostream& os, const FrequencyVectorSet& fvs)
{
    for (InstrCount len : fvs.lengths)
        os << len << "\n";
}

void
readLengthsFile(std::istream& is, FrequencyVectorSet& fvs)
{
    std::vector<InstrCount> lengths;
    u64 value = 0;
    while (is >> value)
        lengths.push_back(value);
    if (lengths.size() != fvs.size())
        fatal("lengths file has {} entries for {} intervals",
              lengths.size(), fvs.size());
    fvs.lengths = std::move(lengths);
}

void
writeSimpointsFile(std::ostream& os, const SimPointResult& result)
{
    for (const Phase& phase : result.phases)
        os << phase.representative << " " << phase.id << "\n";
}

void
writeWeightsFile(std::ostream& os, const SimPointResult& result)
{
    for (const Phase& phase : result.phases)
        os << phase.weight << " " << phase.id << "\n";
}

void
writeLabelsFile(std::ostream& os, const SimPointResult& result)
{
    for (u32 label : result.labels)
        os << label << "\n";
}

SimPointResult
readSimPointFiles(std::istream& simpoints, std::istream& weights,
                  std::istream& labels)
{
    SimPointResult result;

    std::map<u32, u32> reps;
    u64 rep = 0, id = 0;
    while (simpoints >> rep >> id)
        reps[static_cast<u32>(id)] = static_cast<u32>(rep);

    std::map<u32, double> weightOf;
    double w = 0.0;
    while (weights >> w >> id)
        weightOf[static_cast<u32>(id)] = w;

    if (reps.size() != weightOf.size())
        fatal("simpoints file has {} phases but weights file has {}",
              reps.size(), weightOf.size());

    u32 label = 0;
    while (labels >> label)
        result.labels.push_back(label);
    if (result.labels.empty())
        fatal("labels file is empty");

    u32 maxLabel = 0;
    for (u32 l : result.labels)
        maxLabel = std::max(maxLabel, l);
    result.k = maxLabel + 1;

    for (const auto& [phaseId, repIdx] : reps) {
        Phase phase;
        phase.id = phaseId;
        phase.representative = repIdx;
        auto wit = weightOf.find(phaseId);
        if (wit == weightOf.end())
            fatal("phase {} missing from weights file", phaseId);
        phase.weight = wit->second;
        for (u32 i = 0; i < result.labels.size(); ++i) {
            if (result.labels[i] == phaseId)
                phase.members.push_back(i);
        }
        if (phase.members.empty())
            fatal("phase {} has a simulation point but no intervals",
                  phaseId);
        if (repIdx >= result.labels.size() ||
            result.labels[repIdx] != phaseId) {
            fatal("phase {}: representative {} does not carry the "
                  "phase's label", phaseId, repIdx);
        }
        result.phases.push_back(std::move(phase));
    }
    return result;
}

} // namespace xbsp::sp
