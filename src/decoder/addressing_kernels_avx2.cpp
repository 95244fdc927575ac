// AVX2 instantiation of the classify kernels: compiled with -mavx2
// when the compiler supports it (CMake adds the flag per-file), a stub
// otherwise. Only the kernels behind the table pointers execute AVX2
// instructions; the getter itself must stay runnable on any CPU.
#include "decoder/addressing_kernels.h"

#if defined(__AVX2__)
#define NWDEC_ADDR_KERNEL_PATH_NAME "avx2"
#define NWDEC_ADDR_KERNEL_TABLE_FN avx2_kernel_table
#include "decoder/addressing_kernels_body.inc"
#else
namespace nwdec::decoder::detail {
const kernel_table* avx2_kernel_table() { return nullptr; }
}  // namespace nwdec::decoder::detail
#endif
