#ifndef SDBENC_UTIL_CRC32_H_
#define SDBENC_UTIL_CRC32_H_

#include <cstdint>

#include "util/bytes.h"

namespace sdbenc {

/// IEEE 802.3 reflected CRC-32 (poly 0xEDB88320; CRC32("123456789") =
/// 0xCBF43926). The torn-write detector of the WAL and audit-log frame
/// layers — cheap, not cryptographic; authenticity is the AEAD tag's job.
/// Slicing-by-8: eight table lookups per eight input octets.
uint32_t Crc32(BytesView data);

}  // namespace sdbenc

#endif  // SDBENC_UTIL_CRC32_H_
