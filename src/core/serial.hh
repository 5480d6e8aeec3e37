/**
 * @file
 * Artifact-store codecs for VLI builds and candidate partitions, plus
 * content hashing of the mappable-point set (which keys VLI
 * construction and detailed runs: the boundary lists only make sense
 * relative to one exact matching).
 */

#ifndef XBSP_CORE_SERIAL_HH
#define XBSP_CORE_SERIAL_HH

#include "core/mappable.hh"
#include "core/vli.hh"
#include "simpoint/serial.hh"
#include "util/serial.hh"

namespace xbsp::core
{

void encodePartition(serial::Encoder& e, const VliPartition& partition);
VliPartition decodePartition(serial::Decoder& d);
void encodeVliBuild(serial::Encoder& e, const VliBuild& build);
VliBuild decodeVliBuild(serial::Decoder& d);

/** Fold a VLI partition (the boundary list) into `h`. */
void hashPartition(serial::Hasher& h, const VliPartition& partition);

/**
 * Fold the full mappable-point set into `h` (keys, counts, per-binary
 * marker groups and the marker->point tables; rejected keys don't
 * affect downstream stages and are skipped).
 */
void hashMappable(serial::Hasher& h, const MappableSet& mappable);

/** Artifact-store codec for buildVliPartition results. */
struct VliBuildCodec
{
    using Value = VliBuild;
    static constexpr u32 tag = serial::fourcc("VLIB");
    static constexpr u32 version = 1;

    static void
    encode(serial::Encoder& e, const VliBuild& build)
    {
        encodeVliBuild(e, build);
    }

    static VliBuild
    decode(serial::Decoder& d)
    {
        return decodeVliBuild(d);
    }
};

/** Artifact-store codec for mappedPartition results. */
struct VliPartitionCodec
{
    using Value = VliPartition;
    static constexpr u32 tag = serial::fourcc("VLIP");
    static constexpr u32 version = 1;

    static void
    encode(serial::Encoder& e, const VliPartition& partition)
    {
        encodePartition(e, partition);
    }

    static VliPartition
    decode(serial::Decoder& d)
    {
        return decodePartition(d);
    }
};

} // namespace xbsp::core

#endif // XBSP_CORE_SERIAL_HH
