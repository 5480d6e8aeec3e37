/**
 * @file
 * SimPoint 3.0 file-format interoperability.
 *
 * The reference SimPoint distribution consumes frequency-vector files
 * (one interval per line, "T:dim:count" fields) and produces
 * `.simpoints` / `.weights` files (one "value phaseId" pair per
 * line) plus a `.labels` file.  This module reads and writes the
 * frequency-vector and lengths files and writes the clustering files,
 * so studies can exchange data with the original tools: BBVs
 * collected here can be clustered by stock SimPoint (and vice versa),
 * and clusterings computed here can drive stock PinPoints-style
 * flows.
 */

#ifndef XBSP_SIMPOINT_IO_HH
#define XBSP_SIMPOINT_IO_HH

#include <istream>
#include <ostream>
#include <string>

#include "simpoint/simpoint.hh"

namespace xbsp::sp
{

/**
 * Write frequency vectors in SimPoint's .bb format:
 *
 *   T:12:345 :17:1 ...
 *
 * Dimension indices are emitted 1-based, as the original tools
 * expect.  Interval lengths are not part of the format; VLI users
 * should also persist lengths via writeLengthsFile().
 */
void writeBbvFile(std::ostream& os, const FrequencyVectorSet& fvs);

/**
 * Largest dimension index a .bb file may use.  Clustering projects
 * through a dense dimension x 16 matrix of doubles, so the cap bounds
 * that matrix at 512 MiB.
 */
inline constexpr u32 maxBbvDimension = 1u << 22;

/**
 * Parse a .bb file.  Indices are converted back to 0-based; the
 * dimension is the maximum index seen (or `dimensionHint` if
 * larger).  Lengths are initialised to 1 for every interval (fixed
 * length) unless later overwritten.
 * Calls fatal() on malformed input: a bad or over-cap index, a
 * negative or non-finite count, or a line whose total overflows.
 */
FrequencyVectorSet readBbvFile(std::istream& is,
                               u32 dimensionHint = 0);

/** Write one interval length per line (VLI companion file). */
void writeLengthsFile(std::ostream& os,
                      const FrequencyVectorSet& fvs);

/**
 * Read a lengths file into an existing vector set (sizes must match).
 * Calls fatal() on a token that is not an unsigned decimal length, or
 * on lengths whose total overflows.
 */
void readLengthsFile(std::istream& is, FrequencyVectorSet& fvs);

/**
 * Write the `.simpoints` file: "intervalIndex phaseId" per phase,
 * ordered by phase id — the file PinPoints-style tooling consumes to
 * know which intervals to simulate.
 */
void writeSimpointsFile(std::ostream& os, const SimPointResult& result);

/** Write the `.weights` file: "weight phaseId" per phase. */
void writeWeightsFile(std::ostream& os, const SimPointResult& result);

/** Write the `.labels` file: one phase id per interval line. */
void writeLabelsFile(std::ostream& os, const SimPointResult& result);

} // namespace xbsp::sp

#endif // XBSP_SIMPOINT_IO_HH
