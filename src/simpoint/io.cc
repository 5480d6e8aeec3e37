#include "simpoint/io.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <limits>
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
    InstrCount total = 0;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        std::istringstream tokens(line);
        std::string token;
        while (tokens >> token) {
            // strtoull() would accept a sign (and wrap "-5" into a
            // huge length), so require digits only.
            const bool digits = std::all_of(
                token.begin(), token.end(), [](unsigned char c) {
                    return std::isdigit(c) != 0;
                });
            errno = 0;
            const unsigned long long value =
                digits ? std::strtoull(token.c_str(), nullptr, 10) : 0;
            if (!digits || errno == ERANGE)
                fatal("lengths file line {}: bad length '{}'", lineNo,
                      token);
            // Phase weights divide by the total, so it must fit.
            if (value > std::numeric_limits<InstrCount>::max() - total)
                fatal("lengths file line {}: total length overflows",
                      lineNo);
            total += value;
            lengths.push_back(value);
        }
    }
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

} // namespace xbsp::sp
