/* Compiled twins of the two scalar invocation-propagation loops.
 *
 * Built at runtime by repro/perf/native.py (cc -O2 -fPIC -shared) and
 * loaded through ctypes.  Both kernels replace pure-Python scalar
 * loops whose operation order is fully determined, so a C double
 * performs the identical IEEE-754 operation sequence and the
 * results are bitwise equal to the interpreter's (no -ffast-math, no
 * reassociation).  NumPy reductions (ndarray.sum, np.dot) are *not*
 * reimplemented here: their pairwise/BLAS accumulation order is an
 * implementation detail this repo must reproduce, so those stay in
 * NumPy (see repro/perf/batch.py::batched_cache_pressure).
 *
 * Error protocol: both kernels return 0 on success and -(mid + 1)
 * when method `mid` is invoked but has no compiled version — the
 * Python wrapper raises the same SimulationError the reference loop
 * raises.
 */

#include <stdint.h>

/* Mirror of EvaluationAccelerator._propagate over a batch of
 * representative rows (the Opt scenario's accounting hot loop).
 *
 * resolved:  (n_reps, n_methods) cache-entry ids, -1 = unresolved
 * self_rate: per-entry residual self-recursion rate
 * edge_offsets/edge_callees/edge_rates: CSR of the per-entry residual
 *            forward edges, in edge order
 * counts:    (n_reps, n_methods) output, fully written by the kernel
 */
int64_t repro_opt_propagate_batch(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    const int64_t *resolved,
    const double *self_rate,
    const int64_t *edge_offsets,
    const int64_t *edge_callees,
    const double *edge_rates,
    double *counts)
{
    int64_t r, m, mid, k;
    for (r = 0; r < n_reps; r++) {
        const int64_t *row = resolved + r * n_methods;
        double *c_row = counts + r * n_methods;
        for (m = 0; m < n_methods; m++)
            c_row[m] = 0.0;
        c_row[entry_id] = 1.0;
        for (mid = 0; mid < n_methods; mid++) {
            double c = c_row[mid];
            int64_t entry;
            double sr;
            if (c <= 0.0)
                continue;
            entry = row[mid];
            if (entry < 0)
                return -(mid + 1);
            sr = self_rate[entry];
            if (sr > 0.0) {
                c = c / (1.0 - sr);
                c_row[mid] = c;
            }
            for (k = edge_offsets[entry]; k < edge_offsets[entry + 1]; k++)
                c_row[edge_callees[k]] += c * edge_rates[k];
        }
    }
    return 0;
}

/* Cache-blocked variant of repro_opt_propagate_batch.
 *
 * Processes representatives in blocks of `block`, walking methods in
 * the outer loop within each block over a (n_methods, block)
 * method-major scratch matrix and transposing the finished block back
 * into the rep-major counts output.  For a given representative the
 * operation sequence — the zero fill, the entry seed, the mid-order
 * self-rate division and edge accumulations — is exactly the rep-major
 * kernel's, so every row of counts is bitwise identical; the blocking
 * only changes *which other representatives'* work happens between two
 * of one representative's operations.  The win is locality: within a
 * block, one method's cache entry (self_rate + CSR row) is loaded once
 * and applied to every representative while hot, instead of being
 * re-fetched per representative after the whole program's worth of
 * other entries evicted it.
 *
 * scratch: (n_methods, block) caller-provided working matrix
 *
 * Error protocol matches the rep-major kernel except that when several
 * representatives in one block miss different methods, the reported
 * mid is the first in (method, representative) order rather than
 * (representative, method) order — success paths are unaffected.
 */
int64_t repro_opt_propagate_blocked(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    int64_t block,
    const int64_t *resolved,
    const double *self_rate,
    const int64_t *edge_offsets,
    const int64_t *edge_callees,
    const double *edge_rates,
    double *scratch,
    double *counts)
{
    int64_t b0, r, m, mid, k, bw;
    for (b0 = 0; b0 < n_reps; b0 += block) {
        bw = n_reps - b0;
        if (bw > block)
            bw = block;
        for (m = 0; m < n_methods; m++) {
            double *row = scratch + m * block;
            for (r = 0; r < bw; r++)
                row[r] = 0.0;
        }
        {
            double *row = scratch + entry_id * block;
            for (r = 0; r < bw; r++)
                row[r] = 1.0;
        }
        for (mid = 0; mid < n_methods; mid++) {
            double *c_m = scratch + mid * block;
            const int64_t *res = resolved + b0 * n_methods + mid;
            for (r = 0; r < bw; r++) {
                double c = c_m[r];
                int64_t entry;
                double sr;
                if (c <= 0.0)
                    continue;
                entry = res[r * n_methods];
                if (entry < 0)
                    return -(mid + 1);
                sr = self_rate[entry];
                if (sr > 0.0) {
                    c = c / (1.0 - sr);
                    c_m[r] = c;
                }
                for (k = edge_offsets[entry]; k < edge_offsets[entry + 1]; k++)
                    scratch[edge_callees[k] * block + r] += c * edge_rates[k];
            }
        }
        for (r = 0; r < bw; r++) {
            double *out = counts + (b0 + r) * n_methods;
            for (m = 0; m < n_methods; m++)
                out[m] = scratch[m * block + r];
        }
    }
    return 0;
}

/* Mirror of EvaluationAccelerator._propagate_adaptive over a batch of
 * representative columns (the Adapt scenario's matrix propagation).
 *
 * Promoted methods resolve their compiled version per representative
 * through entry_matrix (indexed by promoted_slot); baseline methods
 * use the per-method baseline CSR shared by every representative.
 * Each representative runs the serial reference's scalar chain, so
 * every column of the result is the serial result to the last bit.
 *
 * entry_matrix:  (n_reps, n_promoted) cache-entry ids
 * promoted_slot: per-method column index into entry_matrix rows, or
 *                -1 for baseline methods
 * base_present:  per-method flag: 1 when the baseline skeleton holds
 *                a compiled version for the method
 * counts:        (n_reps, n_methods) output, fully written
 */
int64_t repro_adaptive_propagate_matrix(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    int64_t n_promoted,
    const int64_t *entry_matrix,
    const int64_t *promoted_slot,
    const double *entry_self_rate,
    const int64_t *entry_offsets,
    const int64_t *entry_callees,
    const double *entry_rates,
    const uint8_t *base_present,
    const double *base_self_rate,
    const int64_t *base_offsets,
    const int64_t *base_callees,
    const double *base_rates,
    double *counts)
{
    int64_t r, m, mid, k;
    for (r = 0; r < n_reps; r++) {
        const int64_t *entries = entry_matrix + r * n_promoted;
        double *c_row = counts + r * n_methods;
        for (m = 0; m < n_methods; m++)
            c_row[m] = 0.0;
        c_row[entry_id] = 1.0;
        for (mid = 0; mid < n_methods; mid++) {
            double c = c_row[mid];
            double sr;
            int64_t lo, hi, slot;
            const int64_t *cal;
            const double *rat;
            if (c <= 0.0)
                continue;
            slot = promoted_slot[mid];
            if (slot >= 0) {
                int64_t e = entries[slot];
                if (e < 0)
                    return -(mid + 1);
                sr = entry_self_rate[e];
                lo = entry_offsets[e];
                hi = entry_offsets[e + 1];
                cal = entry_callees;
                rat = entry_rates;
            } else {
                if (!base_present[mid])
                    return -(mid + 1);
                sr = base_self_rate[mid];
                lo = base_offsets[mid];
                hi = base_offsets[mid + 1];
                cal = base_callees;
                rat = base_rates;
            }
            if (sr > 0.0) {
                c = c / (1.0 - sr);
                c_row[mid] = c;
            }
            for (k = lo; k < hi; k++)
                c_row[cal[k]] += c * rat[k];
        }
    }
    return 0;
}

/* Cache-blocked variant of repro_adaptive_propagate_matrix, with the
 * same block structure (and the same bitwise-identity argument and
 * error-order caveat) as repro_opt_propagate_blocked.  Baseline
 * methods additionally benefit from the method-major order: their
 * shared CSR row is resolved once per (method, block) instead of once
 * per (representative, method).
 *
 * scratch: (n_methods, block) caller-provided working matrix
 */
int64_t repro_adaptive_propagate_blocked(
    int64_t n_reps,
    int64_t n_methods,
    int64_t entry_id,
    int64_t n_promoted,
    int64_t block,
    const int64_t *entry_matrix,
    const int64_t *promoted_slot,
    const double *entry_self_rate,
    const int64_t *entry_offsets,
    const int64_t *entry_callees,
    const double *entry_rates,
    const uint8_t *base_present,
    const double *base_self_rate,
    const int64_t *base_offsets,
    const int64_t *base_callees,
    const double *base_rates,
    double *scratch,
    double *counts)
{
    int64_t b0, r, m, mid, k, bw;
    for (b0 = 0; b0 < n_reps; b0 += block) {
        bw = n_reps - b0;
        if (bw > block)
            bw = block;
        for (m = 0; m < n_methods; m++) {
            double *row = scratch + m * block;
            for (r = 0; r < bw; r++)
                row[r] = 0.0;
        }
        {
            double *row = scratch + entry_id * block;
            for (r = 0; r < bw; r++)
                row[r] = 1.0;
        }
        for (mid = 0; mid < n_methods; mid++) {
            double *c_m = scratch + mid * block;
            int64_t slot = promoted_slot[mid];
            for (r = 0; r < bw; r++) {
                double c = c_m[r];
                double sr;
                int64_t lo, hi;
                const int64_t *cal;
                const double *rat;
                if (c <= 0.0)
                    continue;
                if (slot >= 0) {
                    int64_t e = entry_matrix[(b0 + r) * n_promoted + slot];
                    if (e < 0)
                        return -(mid + 1);
                    sr = entry_self_rate[e];
                    lo = entry_offsets[e];
                    hi = entry_offsets[e + 1];
                    cal = entry_callees;
                    rat = entry_rates;
                } else {
                    if (!base_present[mid])
                        return -(mid + 1);
                    sr = base_self_rate[mid];
                    lo = base_offsets[mid];
                    hi = base_offsets[mid + 1];
                    cal = base_callees;
                    rat = base_rates;
                }
                if (sr > 0.0) {
                    c = c / (1.0 - sr);
                    c_m[r] = c;
                }
                for (k = lo; k < hi; k++)
                    scratch[cal[k] * block + r] += c * rat[k];
            }
        }
        for (r = 0; r < bw; r++) {
            double *out = counts + (b0 + r) * n_methods;
            for (m = 0; m < n_methods; m++)
                out[m] = scratch[m * block + r];
        }
    }
    return 0;
}
