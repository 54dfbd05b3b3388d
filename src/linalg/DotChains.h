//===- linalg/DotChains.h - Index-ordered dot-product chains --*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one inner loop of exact GP inference: Acc - sum_k A[k]*B[k],
/// subtracted strictly in index order.  Every Cholesky factorization and
/// substitution path and the exact-GP ALC covariance funnel through it,
/// so the scalar, blocked, extended and multi-right-hand-side paths all
/// execute the identical floating-point operation sequence per element.
///
/// One such chain is bound by the latency of its dependent subtracts,
/// not by flops.  dotSubtract4() advances four *independent* chains that
/// share one operand in a single pass, keeping four subtracts in flight;
/// each chain still sees exactly its own addends in index order, so its
/// result is bitwise equal to dotSubtract()'s.  That holds only while
/// every product is rounded before it is subtracted: the build pins
/// -ffp-contract=off so no product-subtract is fused into an FMA.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_LINALG_DOTCHAINS_H
#define ALIC_LINALG_DOTCHAINS_H

#include <cstddef>

namespace alic {

/// Acc - sum_k A[k]*B[k] over k = 0..Num-1, subtracted in index order.
inline double dotSubtract(double Acc, const double *A, const double *B,
                          size_t Num) {
  for (size_t K = 0; K != Num; ++K)
    Acc -= A[K] * B[K];
  return Acc;
}

/// Four interleaved dotSubtract() chains over the shared operand \p A:
/// chain J replaces Acc[J] with dotSubtract(Acc[J], A, B + J * Stride,
/// Num), bit for bit.
inline void dotSubtract4(double *Acc, const double *A, const double *B,
                         size_t Stride, size_t Num) {
  const double *B0 = B, *B1 = B + Stride, *B2 = B1 + Stride,
               *B3 = B2 + Stride;
  double Acc0 = Acc[0], Acc1 = Acc[1], Acc2 = Acc[2], Acc3 = Acc[3];
  for (size_t K = 0; K != Num; ++K) {
    double Ak = A[K];
    Acc0 -= Ak * B0[K];
    Acc1 -= Ak * B1[K];
    Acc2 -= Ak * B2[K];
    Acc3 -= Ak * B3[K];
  }
  Acc[0] = Acc0;
  Acc[1] = Acc1;
  Acc[2] = Acc2;
  Acc[3] = Acc3;
}

} // namespace alic

#endif // ALIC_LINALG_DOTCHAINS_H
