#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/quant.h"
#include "tensor/scratch.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define VISTA_HAVE_X86_INT8 1
#else
#define VISTA_HAVE_X86_INT8 0
#endif

namespace vista {
namespace {

inline int64_t RoundUp(int64_t x, int64_t multiple) {
  return (x + multiple - 1) / multiple * multiple;
}

/// Packs the (mc x kc) block of A starting at `a` into MR-row strips:
/// strip s holds rows [s*MR, s*MR+MR) column-major within the strip
/// (index p*MR + i), zero-padded past mc so the micro-kernel never
/// branches on the row count.
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* ap) {
  for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
    const int64_t mr = std::min(kGemmMR, mc - ir);
    float* dst = ap + ir * kc;
    for (int64_t p = 0; p < kc; ++p) {
      const float* col = a + ir * lda + p;
      for (int64_t i = 0; i < mr; ++i) {
        dst[p * kGemmMR + i] = col[i * lda];
      }
      for (int64_t i = mr; i < kGemmMR; ++i) {
        dst[p * kGemmMR + i] = 0.0f;
      }
    }
  }
}

/// Packs the (kc x nc) block of B starting at `b` into NR-column strips
/// (index p*NR + j), zero-padded past nc.
void PackB(const float* b, int64_t ldb, int64_t kc, int64_t nc, float* bp) {
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    float* dst = bp + jr * kc;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = b + p * ldb + jr;
      float* row = dst + p * kGemmNR;
      for (int64_t j = 0; j < nr; ++j) row[j] = src[j];
      for (int64_t j = nr; j < kGemmNR; ++j) row[j] = 0.0f;
    }
  }
}

/// Patch-row tap decomposition for one KC panel: row r = pc + p of the
/// implicit patch matrix is the conv tap (channel cc, ky, kx) with
/// r = (cc * kernel + ky) * kernel + kx. Built once per panel so the
/// per-strip pack loops below touch no divisions.
struct ConvRowTaps {
  // Sized for the larger int8 K panel (kGemmKcInt8 = 4 * kGemmKC rows);
  // the fp32 path uses the first kGemmKC entries.
  int32_t cc[kGemmKcInt8];
  int32_t ky[kGemmKcInt8];
  int32_t kx[kGemmKcInt8];

  void Build(const ConvPatchView& v, int64_t pc, int64_t kc) {
    const int64_t kk = static_cast<int64_t>(v.kernel) * v.kernel;
    for (int64_t p = 0; p < kc; ++p) {
      const int64_t r = pc + p;
      const int64_t c = r / kk;
      const int64_t rem = r - c * kk;
      cc[p] = static_cast<int32_t>(c);
      ky[p] = static_cast<int32_t>(rem / v.kernel);
      kx[p] = static_cast<int32_t>(rem % v.kernel);
    }
  }
};

/// One strip's worth of output columns decomposed into output-row runs:
/// columns [jc + jr + q, jc + jr + q + len) all sit in output row oy
/// starting at output column ox. At most kGemmNR runs (w_out == 1), and
/// for typical conv grids one or two. Built once per strip — the span
/// walk is independent of the patch row, so the p loop reuses it.
struct StripSpans {
  struct Run {
    int32_t q, len, oy, ox;
  };
  Run runs[kGemmNR];
  int n = 0;

  void Build(const ConvPatchView& v, int64_t col0, int64_t nr) {
    n = 0;
    int64_t q = 0;
    while (q < nr) {
      const int64_t col = col0 + q;
      const int64_t oy = col / v.w_out;
      const int64_t ox = col - oy * v.w_out;
      const int64_t len = std::min(nr - q, v.w_out - ox);
      runs[n++] = {static_cast<int32_t>(q), static_cast<int32_t>(len),
                   static_cast<int32_t>(oy), static_cast<int32_t>(ox)};
      q += len;
    }
  }
};

/// Packs the (kc x nc) block at (row pc, col jc) of `v`'s implicit patch
/// matrix into NR-column strips — the same strip layout and zero fill as
/// PackB, but copying input segments straight into the strips: within one
/// output-row run a stride-1 patch row is a contiguous slice of an input
/// row, so the gather is the same contiguous copy PackB performs, reading
/// the (L2-resident) input instead of a materialized expansion that was
/// itself gathered from it. Taps landing in the zero-padding border store
/// 0. Single pass: the expansion never exists, not even panel-sized.
void PackBConv(const ConvPatchView& v, int64_t pc, int64_t jc, int64_t kc,
               int64_t nc, float* bp) {
  ConvRowTaps taps;
  taps.Build(v, pc, kc);
  StripSpans spans;
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    spans.Build(v, jc + jr, nr);
    float* dst = bp + jr * kc;
    for (int64_t p = 0; p < kc; ++p) {
      const float* chan =
          v.input + static_cast<int64_t>(taps.cc[p]) * v.h * v.w;
      const int64_t ky = taps.ky[p];
      const int64_t kx = taps.kx[p];
      float* out = dst + p * kGemmNR;
      for (int s = 0; s < spans.n; ++s) {
        const StripSpans::Run& run = spans.runs[s];
        float* o = out + run.q;
        const int64_t iy = run.oy * v.stride - v.pad + ky;
        if (iy < 0 || iy >= v.h) {
          for (int32_t i = 0; i < run.len; ++i) o[i] = 0.0f;
          continue;
        }
        const float* row = chan + iy * v.w;
        if (v.stride == 1) {
          // Column run.ox + i reads ix = ix0 + i: zeros while ix < 0, an
          // unchecked contiguous copy while 0 <= ix < w, zeros past the
          // right edge.
          const int64_t ix0 = run.ox - v.pad + kx;
          const int64_t len = run.len;
          const int64_t left = std::min(len, std::max<int64_t>(0, -ix0));
          const int64_t end = std::max(left, std::min(len, v.w - ix0));
          for (int64_t i = 0; i < left; ++i) o[i] = 0.0f;
          const float* src = row + ix0;
          for (int64_t i = left; i < end; ++i) o[i] = src[i];
          for (int64_t i = end; i < len; ++i) o[i] = 0.0f;
        } else {
          for (int32_t i = 0; i < run.len; ++i) {
            const int64_t ix =
                (run.ox + i) * v.stride - v.pad + kx;
            o[i] = static_cast<uint64_t>(ix) < static_cast<uint64_t>(v.w)
                       ? row[ix]
                       : 0.0f;
          }
        }
      }
      for (int64_t j = nr; j < kGemmNR; ++j) out[j] = 0.0f;
    }
  }
}

/// The register micro-kernel: acc (MR x NR) += Ap strip * Bp strip over kc.
///
/// Written with GCC/Clang vector extensions (8-float lanes, two per NR=16
/// row) so the 6x16 accumulator block provably lives in 12 vector
/// registers; plain auto-vectorization of the equivalent scalar loops only
/// produced 16-byte SLP on GCC 12. The one body is compiled per ISA level
/// (baseline, x86-64-v3, x86-64-v4) and picked once at startup via
/// __builtin_cpu_supports, the int8 kernel's dispatch idiom below. (An
/// ifunc resolver, as target_clones emits, runs before a sanitizer runtime
/// is initialized.)
using MicroKernelFn = void (*)(int64_t kc, const float* ap, const float* bp,
                               float* acc);

typedef float Vec8 __attribute__((vector_size(32)));
static_assert(kGemmNR == 16, "micro-kernel assumes two 8-float lanes");

__attribute__((always_inline)) inline void MicroKernelBody(
    int64_t kc, const float* __restrict ap, const float* __restrict bp,
    float* __restrict acc) {
  Vec8 c[kGemmMR][2];
  for (int64_t i = 0; i < kGemmMR; ++i) {
    std::memcpy(&c[i][0], acc + i * kGemmNR, sizeof(Vec8));
    std::memcpy(&c[i][1], acc + i * kGemmNR + 8, sizeof(Vec8));
  }
  for (int64_t p = 0; p < kc; ++p) {
    Vec8 b0, b1;
    std::memcpy(&b0, bp + p * kGemmNR, sizeof(Vec8));
    std::memcpy(&b1, bp + p * kGemmNR + 8, sizeof(Vec8));
    const float* a = ap + p * kGemmMR;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      c[i][0] += a[i] * b0;
      c[i][1] += a[i] * b1;
    }
  }
  for (int64_t i = 0; i < kGemmMR; ++i) {
    std::memcpy(acc + i * kGemmNR, &c[i][0], sizeof(Vec8));
    std::memcpy(acc + i * kGemmNR + 8, &c[i][1], sizeof(Vec8));
  }
}

void MicroKernelDefault(int64_t kc, const float* ap, const float* bp,
                        float* acc) {
  MicroKernelBody(kc, ap, bp, acc);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define VISTA_HAVE_FP32_ISA_KERNELS 1
__attribute__((target("arch=x86-64-v3"))) void MicroKernelV3(
    int64_t kc, const float* ap, const float* bp, float* acc) {
  MicroKernelBody(kc, ap, bp, acc);
}

__attribute__((target("arch=x86-64-v4"))) void MicroKernelV4(
    int64_t kc, const float* ap, const float* bp, float* acc) {
  MicroKernelBody(kc, ap, bp, acc);
}
#endif

MicroKernelFn ResolveMicroKernel() {
#if defined(VISTA_HAVE_FP32_ISA_KERNELS)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return MicroKernelV4;
  if (__builtin_cpu_supports("x86-64-v3")) return MicroKernelV3;
#endif
  return MicroKernelDefault;
}

const MicroKernelFn g_micro_kernel = ResolveMicroKernel();

/// Runs the micro-tile grid over one packed (mc x kc) A panel and
/// (kc x nc) B panel, accumulating into C. `first` zeroes instead of
/// loading C (the pc == 0 panel); `last` applies the epilogue while
/// storing (the final K panel). `bias` is pre-offset to this C block's
/// first row.
void InnerTiles(int64_t mc, int64_t nc, int64_t kc, const float* ap,
                const float* bp, float* c, int64_t ldc, bool first,
                bool last, const float* bias, bool relu) {
  float acc[kGemmMR * kGemmNR];
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    const float* bstrip = bp + jr * kc;
    for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
      const int64_t mr = std::min(kGemmMR, mc - ir);
      const float* astrip = ap + ir * kc;
      if (first) {
        std::memset(acc, 0, sizeof(acc));
      } else {
        for (int64_t i = 0; i < mr; ++i) {
          const float* src = c + (ir + i) * ldc + jr;
          for (int64_t j = 0; j < nr; ++j) acc[i * kGemmNR + j] = src[j];
        }
      }
      g_micro_kernel(kc, astrip, bstrip, acc);
      for (int64_t i = 0; i < mr; ++i) {
        float* dst = c + (ir + i) * ldc + jr;
        const float* row = acc + i * kGemmNR;
        if (last) {
          const float b = bias != nullptr ? bias[ir + i] : 0.0f;
          if (relu) {
            for (int64_t j = 0; j < nr; ++j) {
              dst[j] = std::max(0.0f, row[j] + b);
            }
          } else {
            for (int64_t j = 0; j < nr; ++j) dst[j] = row[j] + b;
          }
        } else {
          for (int64_t j = 0; j < nr; ++j) dst[j] = row[j];
        }
      }
    }
  }
}

/// Degenerate k == 0: C is the epilogue of a zero product.
void EpilogueOnly(int64_t m, int64_t n, float* c, int64_t ldc,
                  const GemmEpilogue& epilogue) {
  for (int64_t i = 0; i < m; ++i) {
    float v = epilogue.bias != nullptr ? epilogue.bias[i] : 0.0f;
    if (epilogue.relu) v = std::max(0.0f, v);
    float* row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = v;
  }
}

/// ---- Int8 kernel -------------------------------------------------------

/// Packs the (mc x kc) block of A into MR-row strips of 4-deep k blocks:
/// strip byte (kb*MR + i)*4 + t holds A[row i][4*kb + t], signed,
/// zero-padded past mc and past kc (to kc4 = RoundUp(kc, 4)). Also emits
/// the per-row sum over the block's k range, which the driver uses to
/// correct the +128 unsigned bias applied to the B panel.
void PackAInt8(const int8_t* a, int64_t lda, int64_t mc, int64_t kc,
               int8_t* ap, int32_t* rowsum) {
  const int64_t kc4 = RoundUp(kc, 4);
  for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
    const int64_t mr = std::min(kGemmMR, mc - ir);
    int8_t* dst = ap + ir * kc4;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      const int8_t* src = i < mr ? a + (ir + i) * lda : nullptr;
      int32_t sum = 0;
      for (int64_t p = 0; p < kc4; ++p) {
        const int8_t v = (src != nullptr && p < kc) ? src[p] : 0;
        dst[((p / 4) * kGemmMR + i) * 4 + (p % 4)] = v;
        sum += v;
      }
      if (i < mr) rowsum[ir + i] = sum;
    }
  }
}

/// Packs the (kc x nc) block of B into NR-column strips of 4-deep k
/// blocks, biased to unsigned: strip byte (kb*NR + j)*4 + t holds
/// B[4*kb + t][col j] + 128 (so padding stores 128, i.e. signed zero).
/// This is the vpdpbusd unsigned-operand convention; the signed result is
/// recovered by subtracting 128 * rowsum(A).
void PackBInt8(const int8_t* b, int64_t ldb, int64_t kc, int64_t nc,
               uint8_t* bp) {
  const int64_t kc4 = RoundUp(kc, 4);
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    uint8_t* dst = bp + jr * kc4;
    for (int64_t p = 0; p < kc4; ++p) {
      uint8_t* out = dst + (p / 4) * kGemmNR * 4 + (p % 4);
      if (p >= kc) {
        for (int64_t j = 0; j < kGemmNR; ++j) out[j * 4] = 128;
        continue;
      }
      const int8_t* src = b + p * ldb + jr;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        const int v = j < nr ? src[j] : 0;
        out[j * 4] = static_cast<uint8_t>(v + 128);
      }
    }
  }
}

/// Int8 twin of PackBConv: packs the (kc x nc) block of `v`'s implicit
/// patch matrix into PackBInt8's [k/4][NR][4] u8 layout, quantizing each
/// gathered fp32 value on the fly with exactly QuantizeSymmetric's
/// expression — SaturateRoundToInt8(value * (1/act_scale)) — then biasing
/// +128. Padding taps, columns past nc, rows past kc, and the whole panel
/// under the zero-scale guard (act_scale <= 0) all store 128 (signed
/// zero), matching what PackBInt8 would have read from a quantized
/// expansion byte for byte.
void PackBConvInt8(const ConvPatchView& v, float act_scale, int64_t pc,
                   int64_t jc, int64_t kc, int64_t nc, uint8_t* bp) {
  const int64_t kc4 = RoundUp(kc, 4);
  const bool zero_scale = !(act_scale > 0.0f);
  const float inv = zero_scale ? 0.0f : 1.0f / act_scale;
  ConvRowTaps taps;
  taps.Build(v, pc, kc);
  StripSpans spans;
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    spans.Build(v, jc + jr, nr);
    uint8_t* dst = bp + jr * kc4;
    for (int64_t p = 0; p < kc4; ++p) {
      uint8_t* out = dst + (p / 4) * kGemmNR * 4 + (p % 4);
      if (p >= kc || zero_scale) {
        // Rows past kc and the zero-scale guard store 128 (signed zero).
        for (int64_t j = 0; j < kGemmNR; ++j) out[j * 4] = 128;
        continue;
      }
      const float* chan =
          v.input + static_cast<int64_t>(taps.cc[p]) * v.h * v.w;
      const int64_t ky = taps.ky[p];
      const int64_t kx = taps.kx[p];
      for (int s = 0; s < spans.n; ++s) {
        const StripSpans::Run& run = spans.runs[s];
        uint8_t* o = out + static_cast<int64_t>(run.q) * 4;
        const int64_t iy = run.oy * v.stride - v.pad + ky;
        if (iy < 0 || iy >= v.h) {
          for (int32_t i = 0; i < run.len; ++i) o[i * 4] = 128;
          continue;
        }
        const float* row = chan + iy * v.w;
        for (int32_t i = 0; i < run.len; ++i) {
          const int64_t ix = (run.ox + i) * v.stride - v.pad + kx;
          const float val =
              static_cast<uint64_t>(ix) < static_cast<uint64_t>(v.w)
                  ? row[ix]
                  : 0.0f;
          o[i * 4] =
              static_cast<uint8_t>(SaturateRoundToInt8(val * inv) + 128);
        }
      }
      for (int64_t j = nr; j < kGemmNR; ++j) out[j * 4] = 128;
    }
  }
}

/// acc (MR x NR int32) += sum over kb of dot4(Bu8 strip, As8 strip):
/// acc[i][j] += sum_t b[(kb*NR+j)*4+t] * a[(kb*MR+i)*4+t], with b unsigned
/// and a signed. Every dispatch target computes this exact integer
/// expression, so results are bit-identical across ISAs.
using MicroKernelInt8Fn = void (*)(int64_t kc4, const int8_t* ap,
                                   const uint8_t* bp, int32_t* acc);

void MicroKernelInt8Scalar(int64_t kc4, const int8_t* ap, const uint8_t* bp,
                           int32_t* acc) {
  const int64_t kb_n = kc4 / 4;
  for (int64_t kb = 0; kb < kb_n; ++kb) {
    const int8_t* a = ap + kb * kGemmMR * 4;
    const uint8_t* b = bp + kb * kGemmNR * 4;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      const int32_t a0 = a[i * 4 + 0];
      const int32_t a1 = a[i * 4 + 1];
      const int32_t a2 = a[i * 4 + 2];
      const int32_t a3 = a[i * 4 + 3];
      int32_t* row = acc + i * kGemmNR;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        row[j] += static_cast<int32_t>(b[j * 4 + 0]) * a0 +
                  static_cast<int32_t>(b[j * 4 + 1]) * a1 +
                  static_cast<int32_t>(b[j * 4 + 2]) * a2 +
                  static_cast<int32_t>(b[j * 4 + 3]) * a3;
      }
    }
  }
}

#if VISTA_HAVE_X86_INT8
/// 256-bit vpdpbusd micro-kernel (AVX512-VNNI with VL, and the AVX-VNNI
/// twin below for client parts without AVX-512): each dword lane of a B
/// strip holds one column's 4 k bytes, dpbusd does the widening
/// u8 x s8 dot-4 + int32 accumulate in one instruction.
__attribute__((target("avx512vnni,avx512vl,avx512bw,avx512f"))) void
MicroKernelInt8Avx512Vnni(int64_t kc4, const int8_t* ap, const uint8_t* bp,
                          int32_t* acc) {
  // NR == 16 int32 accumulators fit one zmm per row: per k4 block the
  // whole B strip row is a single 64-byte load and each output row is one
  // broadcast + one dpbusd.
  __m512i c[kGemmMR];
  for (int64_t i = 0; i < kGemmMR; ++i) {
    c[i] = _mm512_loadu_si512(acc + i * kGemmNR);
  }
  const int64_t kb_n = kc4 / 4;
  for (int64_t kb = 0; kb < kb_n; ++kb) {
    const __m512i bv = _mm512_loadu_si512(bp + kb * kGemmNR * 4);
    const int8_t* a = ap + kb * kGemmMR * 4;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      int32_t aw;
      std::memcpy(&aw, a + i * 4, sizeof(aw));
      c[i] = _mm512_dpbusd_epi32(c[i], bv, _mm512_set1_epi32(aw));
    }
  }
  for (int64_t i = 0; i < kGemmMR; ++i) {
    _mm512_storeu_si512(acc + i * kGemmNR, c[i]);
  }
}

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#define VISTA_HAVE_AVXVNNI_KERNEL 1
__attribute__((target("avxvnni,avx2"))) void MicroKernelInt8AvxVnni(
    int64_t kc4, const int8_t* ap, const uint8_t* bp, int32_t* acc) {
  __m256i c[kGemmMR][2];
  for (int64_t i = 0; i < kGemmMR; ++i) {
    c[i][0] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + i * kGemmNR));
    c[i][1] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(acc + i * kGemmNR + 8));
  }
  const int64_t kb_n = kc4 / 4;
  for (int64_t kb = 0; kb < kb_n; ++kb) {
    const uint8_t* b = bp + kb * kGemmNR * 4;
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 32));
    const int8_t* a = ap + kb * kGemmMR * 4;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      int32_t aw;
      std::memcpy(&aw, a + i * 4, sizeof(aw));
      const __m256i av = _mm256_set1_epi32(aw);
      c[i][0] = _mm256_dpbusd_avx_epi32(c[i][0], b0, av);
      c[i][1] = _mm256_dpbusd_avx_epi32(c[i][1], b1, av);
    }
  }
  for (int64_t i = 0; i < kGemmMR; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * kGemmNR),
                        c[i][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i * kGemmNR + 8),
                        c[i][1]);
  }
}
#else
#define VISTA_HAVE_AVXVNNI_KERNEL 0
#endif
#endif  // VISTA_HAVE_X86_INT8

struct Int8KernelChoice {
  MicroKernelInt8Fn fn;
  const char* name;
};

/// Runtime dispatch resolved once at startup, as for the fp32 kernel: no
/// x86-64 ISA level implies VNNI, so the int8 kernel tests the features
/// themselves.
Int8KernelChoice ResolveMicroKernelInt8() {
#if VISTA_HAVE_X86_INT8 && defined(__GNUC__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512bw")) {
    return {MicroKernelInt8Avx512Vnni, "avx512vnni"};
  }
#if VISTA_HAVE_AVXVNNI_KERNEL
  if (__builtin_cpu_supports("avxvnni")) {
    return {MicroKernelInt8AvxVnni, "avxvnni"};
  }
#endif
#endif
  return {MicroKernelInt8Scalar, "scalar"};
}

const Int8KernelChoice g_int8_kernel = ResolveMicroKernelInt8();

/// Micro-tile grid over one packed int8 A panel / B panel. Between K
/// panels C holds raw int32 partial sums bit-cast into the float storage;
/// the last panel dequantizes through the epilogue. `rowsum` is this A
/// panel's per-row k sum (for the +128 B bias correction); scale/bias/c8
/// in `e` are pre-offset to this C block's first row/column by the
/// driver.
void InnerTilesInt8(int64_t mc, int64_t nc, int64_t kc, const int8_t* ap,
                    const uint8_t* bp, const int32_t* rowsum, float* c,
                    int64_t ldc, bool first, bool last, const float* scale,
                    const float* bias, bool relu, int8_t* c8, int64_t ldc8,
                    float inv_out_scale) {
  const int64_t kc4 = RoundUp(kc, 4);
  // A fully empty epilogue leaves the raw int32 accumulators bit-cast in
  // c even on the last panel — the differential tests' mode.
  const bool raw = scale == nullptr && bias == nullptr && !relu &&
                   c8 == nullptr;
  alignas(64) int32_t acc[kGemmMR * kGemmNR];
  for (int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const int64_t nr = std::min(kGemmNR, nc - jr);
    const uint8_t* bstrip = bp + jr * kc4;
    for (int64_t ir = 0; ir < mc; ir += kGemmMR) {
      const int64_t mr = std::min(kGemmMR, mc - ir);
      const int8_t* astrip = ap + ir * kc4;
      std::memset(acc, 0, sizeof(acc));
      if (!first) {
        for (int64_t i = 0; i < mr; ++i) {
          std::memcpy(acc + i * kGemmNR, c + (ir + i) * ldc + jr,
                      sizeof(int32_t) * nr);
        }
      }
      g_int8_kernel.fn(kc4, astrip, bstrip, acc);
      for (int64_t i = 0; i < mr; ++i) {
        const int32_t corr = 128 * rowsum[ir + i];
        int32_t* row = acc + i * kGemmNR;
        if (!last || raw) {
          for (int64_t j = 0; j < nr; ++j) row[j] -= corr;
          std::memcpy(c + (ir + i) * ldc + jr, row, sizeof(int32_t) * nr);
          continue;
        }
        const float s = scale != nullptr ? scale[ir + i] : 1.0f;
        const float b = bias != nullptr ? bias[ir + i] : 0.0f;
        if (c8 != nullptr) {
          int8_t* dst = c8 + (ir + i) * ldc8 + jr;
          for (int64_t j = 0; j < nr; ++j) {
            float y = static_cast<float>(row[j] - corr) * s + b;
            if (relu) y = std::max(0.0f, y);
            dst[j] = SaturateRoundToInt8(y * inv_out_scale);
          }
        } else {
          float* dst = c + (ir + i) * ldc + jr;
          for (int64_t j = 0; j < nr; ++j) {
            float y = static_cast<float>(row[j] - corr) * s + b;
            dst[j] = relu ? std::max(0.0f, y) : y;
          }
        }
      }
    }
  }
}

/// Degenerate k == 0 for the int8 path: the epilogue of a zero product.
void EpilogueOnlyInt8(int64_t m, int64_t n, float* c, int64_t ldc,
                      const GemmInt8Epilogue& e) {
  const float inv =
      e.out_scale > 0.0f ? 1.0f / e.out_scale : 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    float v = e.bias != nullptr ? e.bias[i] : 0.0f;
    if (e.relu) v = std::max(0.0f, v);
    if (e.c8 != nullptr) {
      const int8_t q = SaturateRoundToInt8(v * inv);
      int8_t* row = e.c8 + i * e.ldc8;
      for (int64_t j = 0; j < n; ++j) row[j] = q;
    } else {
      float* row = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) row[j] = v;
    }
  }
}

/// ---- Shared panel-loop drivers -----------------------------------------
///
/// The jc (NC) / pc (KC) / ic (MC) blocking, scratch acquisition, and
/// micro-tile dispatch are identical for every B source; the drivers are
/// parameterized on `pack_b(pc, jc, kc, nc, bp)`, which supplies the
/// packed (kc x nc) panel — copied from memory (PackB / PackBInt8) or
/// gathered from a conv's implicit patch matrix (PackBConv /
/// PackBConvInt8). Because the packed panels are byte-identical across
/// sources, every downstream accumulation is too: implicit-GEMM
/// bit-identity is structural, not numerical luck.
///
/// Each (jc, pc) B panel is packed once into the calling thread's arena;
/// the MC row blocks then run inline, or across `pool` (ParallelFor is
/// caller-inclusive, so this is safe from inside a pool task). A block
/// packs its A panel into the arena of the thread running it and writes
/// disjoint rows of C, so the schedule cannot change a single bit.

/// Below ~2 MFLOP the dispatch overhead beats the row-tile win; one M
/// block also leaves nothing to distribute.
inline bool ParallelTooSmall(int64_t m, int64_t n, int64_t k,
                             ThreadPool* pool) {
  return pool == nullptr || pool->num_threads() <= 1 ||
         m * n * k < (1 << 20) || m <= kGemmMC;
}

template <typename PackBFn>
void GemmPackedDriver(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, PackBFn&& pack_b, float* c, int64_t ldc,
                      const GemmEpilogue& epilogue, ThreadPool* pool) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    EpilogueOnly(m, n, c, ldc, epilogue);
    return;
  }
  const bool serial = ParallelTooSmall(m, n, k, pool);
  const int64_t num_blocks = (m + kGemmMC - 1) / kGemmMC;
  const size_t a_floats =
      static_cast<size_t>(RoundUp(std::min(m, kGemmMC), kGemmMR) * kGemmKC);
  KernelScratch& caller = KernelScratch::ThreadLocal();
  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
      const int64_t kc = std::min(kGemmKC, k - pc);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      float* bp = caller.Acquire(
          KernelScratch::Slot::kPackB,
          static_cast<size_t>(RoundUp(nc, kGemmNR) * kc));
      pack_b(pc, jc, kc, nc, bp);
      const auto block = [&](int64_t blk) {
        const int64_t ic = blk * kGemmMC;
        const int64_t mc = std::min(kGemmMC, m - ic);
        float* ap = KernelScratch::ThreadLocal().Acquire(
            KernelScratch::Slot::kPackA, a_floats);
        PackA(a + ic * lda + pc, lda, mc, kc, ap);
        InnerTiles(mc, nc, kc, ap, bp, c + ic * ldc + jc, ldc, first, last,
                   epilogue.bias != nullptr ? epilogue.bias + ic : nullptr,
                   epilogue.relu);
      };
      if (serial) {
        for (int64_t blk = 0; blk < num_blocks; ++blk) block(blk);
      } else {
        pool->ParallelFor(num_blocks, block);
      }
    }
  }
}

template <typename PackBFn>
void GemmPackedInt8Driver(int64_t m, int64_t n, int64_t k, const int8_t* a,
                          int64_t lda, PackBFn&& pack_b, float* c,
                          int64_t ldc, const GemmInt8Epilogue& epilogue,
                          ThreadPool* pool) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    EpilogueOnlyInt8(m, n, c, ldc, epilogue);
    return;
  }
  const bool serial = ParallelTooSmall(m, n, k, pool);
  const int64_t num_blocks = (m + kGemmMC - 1) / kGemmMC;
  const int64_t a_rows = RoundUp(std::min(m, kGemmMC), kGemmMR);
  const float inv_out =
      epilogue.out_scale > 0.0f ? 1.0f / epilogue.out_scale : 0.0f;
  KernelScratch& caller = KernelScratch::ThreadLocal();
  for (int64_t jc = 0; jc < n; jc += kGemmNC) {
    const int64_t nc = std::min(kGemmNC, n - jc);
    for (int64_t pc = 0; pc < k; pc += kGemmKcInt8) {
      const int64_t kc = std::min(kGemmKcInt8, k - pc);
      const int64_t kc4 = RoundUp(kc, 4);
      const bool first = pc == 0;
      const bool last = pc + kc == k;
      uint8_t* bp = static_cast<uint8_t*>(caller.AcquireBytes(
          KernelScratch::Slot::kPackBInt8,
          static_cast<size_t>(RoundUp(nc, kGemmNR) * kc4)));
      pack_b(pc, jc, kc, nc, bp);
      const auto block = [&](int64_t blk) {
        const int64_t ic = blk * kGemmMC;
        const int64_t mc = std::min(kGemmMC, m - ic);
        int8_t* ap = static_cast<int8_t*>(
            KernelScratch::ThreadLocal().AcquireBytes(
                KernelScratch::Slot::kPackAInt8,
                static_cast<size_t>(a_rows * kc4)));
        int32_t rowsum[kGemmMC];
        PackAInt8(a + ic * lda + pc, lda, mc, kc, ap, rowsum);
        InnerTilesInt8(
            mc, nc, kc, ap, bp, rowsum, c + ic * ldc + jc, ldc, first, last,
            epilogue.scale != nullptr ? epilogue.scale + ic : nullptr,
            epilogue.bias != nullptr ? epilogue.bias + ic : nullptr,
            epilogue.relu,
            epilogue.c8 != nullptr ? epilogue.c8 + ic * epilogue.ldc8 + jc
                                   : nullptr,
            epilogue.ldc8, inv_out);
      };
      if (serial) {
        for (int64_t blk = 0; blk < num_blocks; ++blk) block(blk);
      } else {
        pool->ParallelFor(num_blocks, block);
      }
    }
  }
}

}  // namespace

void GemmPacked(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                const float* b, int64_t ldb, float* c, int64_t ldc,
                const GemmEpilogue& epilogue, ThreadPool* pool) {
  GemmPackedDriver(
      m, n, k, a, lda,
      [&](int64_t pc, int64_t jc, int64_t kc, int64_t nc, float* bp) {
        PackB(b + pc * ldb + jc, ldb, kc, nc, bp);
      },
      c, ldc, epilogue, pool);
}

void GemmPackedConv(int64_t m, int64_t n, int64_t k, const float* a,
                    int64_t lda, const ConvPatchView& b, float* c,
                    int64_t ldc, const GemmEpilogue& epilogue,
                    ThreadPool* pool) {
  GemmPackedDriver(
      m, n, k, a, lda,
      [&](int64_t pc, int64_t jc, int64_t kc, int64_t nc, float* bp) {
        PackBConv(b, pc, jc, kc, nc, bp);
      },
      c, ldc, epilogue, pool);
}

const char* GemmInt8KernelName() { return g_int8_kernel.name; }

void GemmPackedInt8(int64_t m, int64_t n, int64_t k, const int8_t* a,
                    int64_t lda, const int8_t* b, int64_t ldb, float* c,
                    int64_t ldc, const GemmInt8Epilogue& epilogue,
                    ThreadPool* pool) {
  GemmPackedInt8Driver(
      m, n, k, a, lda,
      [&](int64_t pc, int64_t jc, int64_t kc, int64_t nc, uint8_t* bp) {
        PackBInt8(b + pc * ldb + jc, ldb, kc, nc, bp);
      },
      c, ldc, epilogue, pool);
}

void GemmPackedConvInt8(int64_t m, int64_t n, int64_t k, const int8_t* a,
                        int64_t lda, const ConvPatchView& b, float act_scale,
                        float* c, int64_t ldc,
                        const GemmInt8Epilogue& epilogue, ThreadPool* pool) {
  GemmPackedInt8Driver(
      m, n, k, a, lda,
      [&](int64_t pc, int64_t jc, int64_t kc, int64_t nc, uint8_t* bp) {
        PackBConvInt8(b, act_scale, pc, jc, kc, nc, bp);
      },
      c, ldc, epilogue, pool);
}

}  // namespace vista
