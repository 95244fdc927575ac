// Scalar instantiation of the bulk deviate conversions: compiled with the
// auto-vectorizer disabled (-fno-tree-vectorize) so it is the genuinely
// scalar oracle every wider path is compared against.
#include "util/rng_kernels.h"

#define NWDEC_RNG_KERNEL_PATH_NAME "scalar"
#define NWDEC_RNG_KERNEL_TABLE_FN scalar_rng_kernel_table
#include "util/rng_kernels_body.inc"
