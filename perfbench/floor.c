/* Floor kernels owned by the benchmark.
 *
 * They do the same kind of work as the program's generated kernels
 * (CSR row loops and sorted two-pointer merges over int64 coordinates
 * and double values) but are fixed code, so their run time tracks the
 * speed of the host and nothing else.  Built with gcc into a shared
 * object and called through ctypes by floors.py.  The compile floor
 * builds it with -DFLOOR_SPMV_ONLY: one function, about the size of a
 * small generated kernel.
 */
#include <stdint.h>

/* y[i] = sum_j A[i,j] * x[j] over rows [lo, hi) of a CSR matrix. */
void floor_spmv(int64_t lo, int64_t hi, const int64_t *pos,
                const int64_t *crd, const double *vals, const double *x,
                double *y) {
  for (int64_t i = lo; i < hi; i++) {
    double acc = 0.0;
    for (int64_t p = pos[i]; p < pos[i + 1]; p++)
      acc += vals[p] * x[crd[p]];
    y[i - lo] = acc;
  }
}

#ifndef FLOOR_SPMV_ONLY
/* C = A + B for two CSR matrices with sorted rows (a merge per row).
 * Writes C's row pointers, coordinates and values; returns nnz(C), or
 * -1 when `cap` is too small. */
int64_t floor_merge(int64_t n, const int64_t *pa, const int64_t *ca,
                    const double *va, const int64_t *pb, const int64_t *cb,
                    const double *vb, int64_t cap, int64_t *pc, int64_t *cc,
                    double *vc) {
  int64_t q = 0;
  pc[0] = 0;
  for (int64_t i = 0; i < n; i++) {
    int64_t p = pa[i], r = pb[i];
    const int64_t pe = pa[i + 1], re = pb[i + 1];
    while (p < pe && r < re) {
      if (q >= cap) return -1;
      int64_t a = ca[p], b = cb[r];
      if (a == b) { cc[q] = a; vc[q++] = va[p++] + vb[r++]; }
      else if (a < b) { cc[q] = a; vc[q++] = va[p++]; }
      else { cc[q] = b; vc[q++] = vb[r++]; }
    }
    while (p < pe) { if (q >= cap) return -1; cc[q] = ca[p]; vc[q++] = va[p++]; }
    while (r < re) { if (q >= cap) return -1; cc[q] = cb[r]; vc[q++] = vb[r++]; }
    pc[i + 1] = q;
  }
  return q;
}

/* sum over the intersection of two CSR matrices (an inner product). */
double floor_inner(int64_t n, const int64_t *pa, const int64_t *ca,
                   const double *va, const int64_t *pb, const int64_t *cb,
                   const double *vb) {
  double acc = 0.0;
  for (int64_t i = 0; i < n; i++) {
    int64_t p = pa[i], r = pb[i];
    const int64_t pe = pa[i + 1], re = pb[i + 1];
    while (p < pe && r < re) {
      int64_t a = ca[p], b = cb[r];
      if (a == b) acc += va[p++] * vb[r++];
      else if (a < b) p++;
      else r++;
    }
  }
  return acc;
}
#endif
