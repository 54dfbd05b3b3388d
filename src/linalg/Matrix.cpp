//===- linalg/Matrix.cpp --------------------------------------*- C++ -*-===//

#include "linalg/Matrix.h"

#include "support/Error.h"

#include <cassert>

using namespace alic;

Matrix::Matrix(size_t Rows, size_t Cols, double Fill)
    : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Fill) {}

double alic::dotProduct(const std::vector<double> &A,
                        const std::vector<double> &B) {
  assert(A.size() == B.size() && "dot product size mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I != A.size(); ++I)
    Sum += A[I] * B[I];
  return Sum;
}

double alic::squaredDistance(RowRef A, RowRef B) {
  assert(A.size() == B.size() && "distance size mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I != A.size(); ++I) {
    double D = A[I] - B[I];
    Sum += D * D;
  }
  return Sum;
}
