"""Mutants the tests must kill: each is one edit of the source that a
named test was written to catch.

A mutant is (file under src/ringwalk, exact snippet, replacement, test node
ids).  The snippet occurs exactly once in src/ (test_mutants checks this at
tier 1, so an entry cannot rot when the code moves); applied to a copy of
src/, it makes every named test fail (checked under RINGWALK_EXTENDED=1).
Mutation testing: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    Mutant("step-index-in-int32", "mixing.py",
           "index = np.empty(sizes[0], dtype=np.intp)",
           "index = np.empty(sizes[0], dtype=np.int32)",
           ("tests/test_mixing.py::test_a_step_allocates_nothing",)),
    Mutant("draws-unbounded-in-flight", "mixing.py",
           "slots = threading.Semaphore(2)",
           "slots = threading.Semaphore(3)",
           ("tests/test_mixing.py::test_simulate_memory_is_two_bytes_per_"
            "sample",)),
    Mutant("draw-thread-left-waiting", "mixing.py",
           "slots.release()     # wakes a draw thread that waits for a slot",
           "pass",
           ("tests/test_mixing.py::test_simulate_reraises_a_step_error_and_"
            "joins_its_draw_thread",)),
    Mutant("step-table-halves-swapped", "mixing.py",
           "table = np.concatenate([ring.add, ring.mul])",
           "table = np.concatenate([ring.mul, ring.add])",
           ("tests/test_mixing.py::test_simulate_equals_reference_stream",)),
    Mutant("ring-keys-unchecked", "cli.py",
           "    if foreign:\n",
           "    if False:\n",
           tuple(f"tests/test_cli.py::test_ring_key_the_kind_does_not_read_"
                 f"names_its_field[{case}]"
                 for case in ("zn-q", "matrix-n", "upper_triangular-size",
                              "product-q", "factor-q"))),
    Mutant("right-walk-pi-on-r", "cli.py",
           "pi = stationary_recursive(ring, Q, alpha)\n"
           "    rep[\"meta\"][\"tv_to_stationary\"]",
           "base = ring_from_descriptor(cfg[\"ring\"])\n"
           "    pi = stationary_recursive(base, q_from_config(base, "
           "cfg.get(\"Q\")), alpha)\n"
           "    rep[\"meta\"][\"tv_to_stationary\"]",
           ("tests/test_cli.py::test_simulate_right_side_measures_tv_to_its_"
            "own_pi",)),
    Mutant("add-weights-unscaled", "mixing.py",
           "weights[:n] = p * (L // n)",
           "weights[:n] = p",
           ("tests/test_mixing.py::test_end_states_follow_the_exact_law["
            "M2(F3)-1/2-left]",
            "tests/test_mixing.py::test_end_states_follow_the_exact_law["
            "Z_360-1/10-right]",
            "tests/test_mixing.py::test_simulation_golden_counts["
            "z12-den2^56]")),
    Mutant("multiply-weights-without-tails-share", "mixing.py",
           "weights[n:] = (s - p) * (L // den) * w_int",
           "weights[n:] = (L // den) * w_int",
           ("tests/test_mixing.py::test_end_states_follow_the_exact_law["
            "M2(F3)-1/10-left]",
            "tests/test_mixing.py::test_end_states_follow_the_exact_law["
            "B2(F5)-2/7-right]")),
    Mutant("q-sampler-ignores-straddles", "mixing.py",
           "if self.straddles:",
           "if False:",
           ("tests/test_mixing.py::test_q_sampler_straddling_buckets_only_"
            "above_guide_bits",
            "tests/test_mixing.py::test_simulation_golden_counts["
            "z12-den2^40]",
            "tests/test_mixing.py::test_simulate_accepts_a_move_range_just_"
            "below_2_63[z12-R2^63-8]")),
    Mutant("q-sampler-steps-one-boundary-only", "mixing.py",
           "z[far] = np.searchsorted(self.cum, dh[far], side=\"right\")",
           "z[far] = z[far]",
           ("tests/test_mixing.py::test_q_sampler_straddling_buckets_only_"
            "above_guide_bits",)),
    Mutant("sampler-drops-last-multiply-code", "mixing.py",
           "sampler = QSampler(move_weights(ring.n, Q, alpha))",
           "sampler = QSampler(move_weights(ring.n, Q, alpha)[:-1])",
           ("tests/test_mixing.py::test_end_states_follow_the_exact_law["
            "M2(F3)-1/10-left]",
            "tests/test_mixing.py::test_simulation_golden_counts["
            "m2f2-left]")),
    Mutant("move-range-admits-2^63", "mixing.py",
           "if s * L >= 2**63:",
           "if s * L > 2**63:",
           ("tests/test_mixing.py::test_simulate_refuses_a_move_range_of_"
            "2_63[z2-R2^63]",)),
    Mutant("orbits-without-orbit-stabilizer", "mixing.py",
           "if not (closed and np.all(sizes * central == len(units))):",
           "if not closed:",
           ("tests/test_mixing.py::test_class_products_reject_closed_classes_"
            "that_merge_orbits",)),
    Mutant("orbits-without-conjugation", "mixing.py",
           "closed = np.array_equal(class_of[reps], np.arange(k)) and all(",
           "closed = True or all(",
           ("tests/test_mixing.py::test_class_products_reject_classes_that_"
            "trade_two_elements",)),
    Mutant("prelude-without-inverses", "rings.py",
           "self._require(np.all(np.count_nonzero(add[s:s + _BLOCK]",
           "self._require(True or np.all(np.count_nonzero(add[s:s + _BLOCK]",
           ("tests/test_rings.py::test_each_generator_check_names_the_axiom_"
            "it_catches[some element has no additive inverse]",)),
    Mutant("ideals-without-certificate", "rings.py",
           "self._require(np.count_nonzero(leq & leq.T) == k,",
           "self._require(True,",
           ("tests/test_rings.py::test_ideals_certificate_rejects_orbits_of_"
            "one_unit_generator",)),
    Mutant("ideal-orbits-of-one-unit-generator", "rings.py",
           "[mul[g] for g in self.unit_generators], n)",
           "[mul[g] for g in self.unit_generators[:1]], n)",
           tuple(f"tests/test_rings.py::test_ideals_equal_the_bit_table_on_"
                 f"fixed_rings[{case}]" for case in ("M2(F3)", "M3(F2)"))),
    Mutant("f-set-reads-a-row", "rings.py",
           "in_sa[self.mul[:, a]]",
           "in_sa[self.mul[a, :]]",
           tuple(f"tests/test_rings.py::test_f_set_equals_the_per_rep_route_"
                 f"on_fixed_rings[{case}]" for case in ("B2(F3)", "M2(F3)"))),
    Mutant("certificate-keys-in-uint16", "stationary.py",
           "np.multiply(ring.mul[block], k, dtype=np.intp)",
           "np.multiply(ring.mul[block], k)",
           ("tests/test_cli.py::test_stationary_certificate_holds_where_n_k_"
            "exceeds_uint16",)),
    Mutant("certificate-skips-last-row-block", "stationary.py",
           "for start in range(0, len(zs), rows):",
           "for start in range(0, len(zs) - rows, rows):",
           tuple(f"tests/test_stationary.py::test_certificate_counts_equal_"
                 f"the_per_class_count[{case}]"
                 for case in ("int64", "int64-weights-object-counts",
                              "object"))),
    Mutant("recursion-transfer-transposed", "stationary.py",
           "sizes[j] * int(counts[j, i]), sizes[i] * den))",
           "sizes[j] * int(counts[i, j]), sizes[i] * den))",
           ("tests/test_stationary.py::test_solve_equals_recursion_on_random_"
            "rings",
            "tests/test_stationary.py::test_transfers_exact_past_int64["
            "B2(F3)^op]")),
    Mutant("recursion-drops-size-ratio", "stationary.py",
           "sizes[j] * int(counts[j, i]), sizes[i] * den))",
           "int(counts[j, i]), den))",
           ("tests/test_stationary.py::test_solve_equals_recursion_on_random_"
            "rings",
            "tests/test_stationary.py::test_transfers_exact_past_int64["
            "B2(F3)]")),
    Mutant("curve-pushes-by-rows", "mixing.py",
           "_count_columns(ring.mul, ring.phi, mu[class_of])",
           "_count_columns(ring.mul.T, ring.phi, mu[class_of])",
           ("tests/test_mixing.py::test_curve_equals_matrix_power_oracle_on_"
            "random_rings",)),
    Mutant("merge-without-collapse", "spectrum.py",
           "distinct, inv = np.unique(evs, return_inverse=True, "
           "equal_nan=False)",
           "distinct, inv = evs, np.arange(len(evs))",
           ("tests/test_spectrum.py::test_merge_cost_follows_the_number_of_"
            "distinct_values",)),
    Mutant("conjugation-first-block-only", "checks.py",
           "for block in seen:",
           "for block in seen[:1]:",
           ("tests/test_spectrum.py::test_conjugation_check_reads_the_last_"
            "row_block",)),
    Mutant("conjugation-fixed-prime", "checks.py",
           "[_random_prime(rnd) for _ in range(_VECTORS)]",
           "[2 ** 18 + 3] * _VECTORS",
           ("tests/test_spectrum.py::test_conjugation_check_sees_a_defect_"
            "that_one_prime_divides",)),
    Mutant("two-way-first-block-only", "checks.py",
           "def two_way(block, num, sizes, inside):\n",
           "def two_way(block, num, sizes, inside):\n"
           "        if block[0] > 0:\n"
           "            return None\n",
           ("tests/test_spectrum.py::test_two_way_check_reads_the_last_row_"
            "block",)),
    Mutant("m-shift-first-block-only", "checks.py",
           "def m_shift(block, rows, sizes, inside):\n",
           "def m_shift(block, rows, sizes, inside):\n"
           "        if block[0] > 0:\n"
           "            return None\n",
           ("tests/test_spectrum.py::test_m_shift_check_reads_the_last_row_"
            "block",)),
    Mutant("rxy-first-block-only", "checks.py",
           "def rxy(block, num, sizes, inside):\n",
           "def rxy(block, num, sizes, inside):\n"
           "        if block[0] > 0:\n"
           "            return None\n",
           ("tests/test_rings.py::test_rxy_check_reads_the_last_row_block",)),
    Mutant("b-scan-stops-at-first-failure", "checks.py",
           "if all(fails):",
           "if any(fails):",
           ("tests/test_spectrum.py::test_scan_keeps_each_check_s_first_"
            "failure",)),
    Mutant("unit-counts-eager", "chain.py",
           "    return num, sizes\n",
           "    sizes()\n    return num, sizes\n",
           ("tests/test_spectrum.py::test_only_the_rxy_check_counts_unit_"
            "weights",)),
    Mutant("rxy-without-emptiness", "checks.py",
           "empty = (counts > 0) != contained",
           "empty = np.zeros_like(contained)",
           ("tests/test_rings.py::test_rxy_check_reads_the_last_row_block",
            "tests/test_rings.py::test_rxy_check_catches_a_wrong_poset_or_"
            "table")),
    Mutant("table-image-drops-coefficients", "gl2.py",
           "return (coef * powers[angle]).sum(axis=-1) % p",
           "return (powers[angle] * (coef != 0)).sum(axis=-1) % p",
           ("tests/test_gl2.py::test_table_readings_equal_the_oracle",
            "tests/test_spectrum.py::test_gl2_check_passes_and_matches_"
            "lapack[2-5]")),
    Mutant("table-values-summed-from-zero", "gl2.py",
           "return np.select([c == 1, c == -1, c != 0], [s, -s, c * s], 0)",
           "return 0 + np.select([c == 1, c == -1, c != 0], [s, -s, c * s],"
           " 0)",
           ("tests/test_gl2.py::test_table_readings_equal_the_oracle",)),
    Mutant("b-rows-reads-a-row", "chain.py",
           "np.take(mul, block, axis=1).T",
           "np.take(mul, block, axis=0)",
           tuple(f"tests/test_spectrum.py::test_b_rows_equal_the_count_on_"
                 f"{case}" for case in ("fixed_rings[M2(F3)-int64]",
                                        "fixed_rings[B2(F5)-object]",
                                        "random_rings[int64]",
                                        "random_rings[object]"))),
    Mutant("b-blocks-skips-last-scatter", "chain.py",
           "for j in range(0, len(block), width):",
           "for j in range(0, len(block) - width, width):",
           tuple(f"tests/test_spectrum.py::test_b_rows_equal_the_count_on_"
                 f"{case}" for case in ("fixed_rings[M2(F3)-int64]",
                                        "fixed_rings[B2(F5)-object]",
                                        "random_rings[int64]",
                                        "random_rings[object]"))),
    Mutant("b-blocks-int64-on-object", "chain.py",
           "num = np.empty((len(block), n), dtype=w.dtype)",
           "w = w.astype(np.int64)\n"
           "    num = np.empty((len(block), n), dtype=w.dtype)",
           tuple(f"tests/test_spectrum.py::test_b_rows_equal_the_count_on_"
                 f"{case}" for case in ("fixed_rings[M2(F3)-object]",
                                        "fixed_rings[B2(F5)-object]",
                                        "random_rings[object]"))),
    Mutant("block-spectrum-lazy-caps", "spectrum.py",
           "if size > EIG_CAP and (int(a) not in ring.unit_set",
           "if False and (int(a) not in ring.unit_set",
           tuple(f"tests/test_spectrum.py::test_block_spectrum_meets_its_"
                 f"caps_before_its_first_read[{case}]"
                 for case in ("Z_13", "B2(F3)"))
           + ("tests/test_cli.py::test_spectrum_checks_its_caps_before_"
              "building_b",)),
)
