//===- linalg/Cholesky.cpp ------------------------------------*- C++ -*-===//

#include "linalg/Cholesky.h"

#include "linalg/DotChains.h"
#include "support/Error.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alic;

namespace {

/// Width of the serially factored diagonal panels.  The serial fraction
/// of the blocked factorization is ~3*Panel/N of the flops, so 48 keeps
/// it under 3% at n >= 5000 while the panels stay comfortably in L1.
constexpr size_t FactorizePanel = 48;

/// Rows per forked trailing-update shard: a pure function of N (never
/// the worker count), so the shard grid — and with it the result — is
/// identical at any parallelism.
size_t factorizeRowShard(size_t N) { return std::max<size_t>(8, N / 128); }

} // namespace

std::optional<Cholesky> Cholesky::factorize(const Matrix &A,
                                            Scheduler *Workers) {
  assert(A.rows() == A.cols() && "Cholesky needs a square matrix");
  size_t N = A.rows();
  Cholesky F;
  F.N = N;
  F.Packed.resize(N * (N + 1) / 2);
  size_t RowShard = factorizeRowShard(N);
  for (size_t J0 = 0; J0 < N; J0 += FactorizePanel) {
    size_t J1 = std::min(J0 + FactorizePanel, N);
    // Diagonal panel: rows J0..J1-1 in order (each depends on the panel
    // rows above it).  Columns below J0 of these rows were produced as
    // trailing updates of earlier panels, so every dot product below
    // reads only final values — the classic scalar recurrence.
    for (size_t J = J0; J != J1; ++J) {
      double *RowJ = F.row(J);
      for (size_t C = J0; C != J; ++C) {
        const double *RowC = F.row(C);
        RowJ[C] = dotSubtract(A.at(J, C), RowJ, RowC, C) / RowC[C];
      }
      double Diag = dotSubtract(A.at(J, J), RowJ, RowJ, J);
      if (Diag <= 0.0 || !std::isfinite(Diag))
        return std::nullopt;
      RowJ[J] = std::sqrt(Diag);
    }
    // Trailing update: the panel columns of every row below the panel.
    // Rows are mutually independent (each reads only finished panel rows
    // and its own earlier columns), so they fork across the scheduler;
    // each shard writes a disjoint packed row range.
    shardedFor(Workers, N - J1, RowShard,
               [&](size_t, size_t Begin, size_t End) {
                 for (size_t I = J1 + Begin; I != J1 + End; ++I) {
                   double *RowI = F.row(I);
                   for (size_t C = J0; C != J1; ++C) {
                     const double *RowC = F.row(C);
                     RowI[C] =
                         dotSubtract(A.at(I, C), RowI, RowC, C) / RowC[C];
                   }
                 }
               });
  }
  return F;
}

bool Cholesky::extend(RowRef B, double C) {
  assert(B.size() == N && "border size mismatch");
  // Append the border as a new packed row and forward-substitute it in
  // place — the same recurrence, in the same order, factorize() applies
  // to its last row.  Growth is amortized O(n) via the buffer's
  // geometric reallocation; nothing else moves.
  size_t Base = Packed.size();
  Packed.resize(Base + N + 1);
  double *Row = Packed.data() + Base;
  for (size_t I = 0; I != N; ++I)
    Row[I] = B[I];
  for (size_t I = 0; I != N; ++I) {
    const double *RowI = row(I);
    Row[I] = dotSubtract(Row[I], RowI, Row, I) / RowI[I];
  }
  double Diag = dotSubtract(C, Row, Row, N);
  if (Diag <= 0.0 || !std::isfinite(Diag)) {
    Packed.resize(Base); // shrink: no reallocation, factor untouched
    return false;
  }
  Row[N] = std::sqrt(Diag);
  ++N;
  return true;
}

void Cholesky::rankOneUpdate(RowRef V) {
  assert(V.size() == N && "update vector size mismatch");
  // Classic Givens-style positive update: eliminate W against the
  // diagonal one column at a time.  O(n^2); the factor stays valid
  // because A + V V^T is positive definite whenever A is.
  std::vector<double> W(V.begin(), V.end());
  for (size_t K = 0; K != N; ++K) {
    double Lkk = at(K, K);
    double R = std::sqrt(Lkk * Lkk + W[K] * W[K]);
    double Cos = R / Lkk;
    double Sin = W[K] / Lkk;
    row(K)[K] = R;
    for (size_t I = K + 1; I != N; ++I) {
      double Lik = (at(I, K) + Sin * W[I]) / Cos;
      row(I)[K] = Lik;
      // The workspace rotates against the *updated* column entry.
      W[I] = Cos * W[I] - Sin * Lik;
    }
  }
}

void Cholesky::solveLowerInPlace(double *B) const {
  for (size_t I = 0; I != N; ++I) {
    const double *RowI = row(I);
    B[I] = dotSubtract(B[I], RowI, B, I) / RowI[I];
  }
}

void Cholesky::solveInPlace(double *B) const {
  solveLowerInPlace(B);
  // Back substitution with L^T: a column walk through the packed rows.
  for (size_t I = N; I-- > 0;) {
    double Sum = B[I];
    for (size_t K = I + 1; K != N; ++K)
      Sum -= at(K, I) * B[K];
    B[I] = Sum / at(I, I);
  }
}

void Cholesky::solveLowerManyInPlace(double *B, size_t NumRhs) const {
  // Factor-row outer loop: row I streams from cache through the
  // right-hand sides, four interleaved chains per pass.  Per right-hand
  // side the arithmetic is exactly solveLowerInPlace()'s.
  for (size_t I = 0; I != N; ++I) {
    const double *RowI = row(I);
    size_t R = 0;
    for (; R + 4 <= NumRhs; R += 4) {
      double *Rhs = B + R * N + I;
      double Acc[4] = {Rhs[0], Rhs[N], Rhs[2 * N], Rhs[3 * N]};
      dotSubtract4(Acc, RowI, B + R * N, N, I);
      for (size_t J = 0; J != 4; ++J)
        Rhs[J * N] = Acc[J] / RowI[I];
    }
    for (; R != NumRhs; ++R) {
      double *Rhs = B + R * N;
      Rhs[I] = dotSubtract(Rhs[I], RowI, Rhs, I) / RowI[I];
    }
  }
}

void Cholesky::solveManyInPlace(double *B, size_t NumRhs) const {
  solveLowerManyInPlace(B, NumRhs);
  if (N == 0)
    return;
  // Back substitution: gather column I of L once, then stream it
  // unit-stride through the right-hand sides, four per pass (same values
  // in the same order as solveInPlace()'s strided walk).
  std::vector<double> Col(N);
  for (size_t I = N; I-- > 0;) {
    for (size_t K = I + 1; K != N; ++K)
      Col[K] = at(K, I);
    const double *Tail = Col.data() + I + 1;
    size_t Len = N - I - 1;
    double Dii = at(I, I);
    size_t R = 0;
    for (; R + 4 <= NumRhs; R += 4) {
      double *Rhs = B + R * N + I;
      double Acc[4] = {Rhs[0], Rhs[N], Rhs[2 * N], Rhs[3 * N]};
      dotSubtract4(Acc, Tail, Rhs + 1, N, Len);
      for (size_t J = 0; J != 4; ++J)
        Rhs[J * N] = Acc[J] / Dii;
    }
    for (; R != NumRhs; ++R) {
      double *Rhs = B + R * N;
      Rhs[I] = dotSubtract(Rhs[I], Tail, Rhs + I + 1, Len) / Dii;
    }
  }
}

std::vector<double> Cholesky::solveLower(const std::vector<double> &B) const {
  assert(B.size() == N && "rhs size mismatch");
  std::vector<double> Y = B;
  solveLowerInPlace(Y.data());
  return Y;
}

std::vector<double> Cholesky::solve(const std::vector<double> &B) const {
  assert(B.size() == N && "rhs size mismatch");
  std::vector<double> X = B;
  solveInPlace(X.data());
  return X;
}

double Cholesky::logDeterminant() const {
  double Sum = 0.0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::log(at(I, I));
  return 2.0 * Sum;
}

Matrix Cholesky::factor() const {
  Matrix L(N, N, 0.0);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J <= I; ++J)
      L.at(I, J) = at(I, J);
  return L;
}
