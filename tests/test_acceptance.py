"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All comparisons are exact.
"""

from greenheights import (
    CLAIM_IDS,
    analyze,
    asym_family,
    check_claims,
    fixture,
    k_classes,
    k_height,
    longest_chain_oracle,
    nm_family,
    random_transformation_subsemigroup,
    squarefree_words,
    u_of,
)
from greenheights.enumeration import associative_tables
from greenheights.green import below_masks

from helpers import brute_force_tables, census, sampled_zero_semigroups


def _verdict(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_figure_fixtures_exact():
    r_s = analyze(fixture("fig1_s"))
    r_u = analyze(fixture("fig1_u"))
    r_u2 = analyze(fixture("fig2_u2"))
    ok = (
        (r_s.H_L, r_s.H_R, r_s.H_J) == (2, 3, 3)
        and (r_u.H_L, r_u.H_R, r_u.H_J) == (3, 7, 7)
        and (r_u2.H_L, r_u2.H_R, r_u2.H_J, r_u2.H_H) == (3, 3, 4, 2)
    )
    _verdict("criterion 1: named fixtures analyze to their reference heights", ok)


def test_criterion_2_extension_height_laws():
    failures = []
    checked = 0
    for order in (1, 2, 3, 4):
        for s in census(order):
            if s.zero is None:
                continue
            u = u_of(s)
            if (
                k_height(u, "L") != k_height(s, "L") + 1
                or k_height(u, "R") != 2 * k_height(s, "R") + 1
            ):
                failures.append(s)
            checked += 1
    sampled = sampled_zero_semigroups(500)
    for s in sampled:
        u = u_of(s)
        if (
            k_height(u, "L") != k_height(s, "L") + 1
            or k_height(u, "R") != 2 * k_height(s, "R") + 1
        ):
            failures.append(s)
    ok = not failures and checked >= 1000 and len(sampled) == 500
    _verdict(
        f"criterion 2: extension laws on {checked} census inputs and "
        f"{len(sampled)} sampled order-5/6 inputs",
        ok,
    )


def test_criterion_3_two_parameter_family_exact():
    ok = True
    for n in range(1, 5):
        for m in range(n, 2**n):
            s = nm_family(n, m)
            ok = ok and (
                s.order == m
                and k_height(s, "L") == n
                and k_height(s, "R") == m
                and k_height(s, "J") == m
                and k_classes(s, "J").class_count == m
            )
    _verdict("criterion 3: (n, m) family measures |S|=m, H_L=n, H_R=H_J=m", ok)


def test_criterion_4_asymmetric_family_exact():
    expected_orders = {2: 5, 3: 37, 4: 197}
    ok = True
    for n in (2, 3, 4):
        u = asym_family(n)
        side = 2**n + n - 3
        ok = ok and u.order == expected_orders[n]
        ok = ok and (
            k_height(u, "L") == side
            and k_height(u, "R") == side
            and k_height(u, "J") == 2 ** (n + 1) - 4
        )
    _verdict("criterion 4: asymmetric family heights match the formulas", ok)


def test_criterion_5_exhaustive_claim_sweep():
    # the generator is validated against the filter oracle before being trusted
    for order in (1, 2, 3):
        assert list(associative_tables(order)) == brute_force_tables(order)
    violations = []
    checked = 0
    for order in (1, 2, 3, 4):
        for s in census(order):
            analyze(s)
            for result in check_claims(s):
                if result.applicable and not result.holds:
                    violations.append((s, result))
            checked += 1
    ok = not violations and checked == 1 + 8 + 113 + 3492
    _verdict(
        f"criterion 5: zero violations across {len(CLAIM_IDS)} claims on "
        f"{checked} census semigroups",
        ok,
    )


def test_criterion_6_oracle_equivalence():
    mismatched = 0
    for order in (1, 2, 3, 4):
        for s in census(order):
            for relation in ("L", "R", "J", "H"):
                if k_height(s, relation) != longest_chain_oracle(s, relation):
                    mismatched += 1
    sampled = 0
    for seed in range(1000):
        s = random_transformation_subsemigroup(2 + seed % 3, 1 + seed % 3, seed)
        for relation in ("L", "R", "J", "H"):
            if k_height(s, relation) != longest_chain_oracle(s, relation):
                mismatched += 1
        sampled += 1
    ok = mismatched == 0 and sampled == 1000
    _verdict(
        "criterion 6: condensation heights equal the chain oracle on the "
        "census and 1000 seeded transformation subsemigroups",
        ok,
    )


def test_criterion_7_squarefree_words_exact():
    ok = True
    for k in (2, 3, 4):
        s = squarefree_words(k)
        ok = ok and k_height(s, "H") == 2
        ok = ok and all(k_height(s, rel) == k + 1 for rel in ("L", "R", "J"))
    _verdict("criterion 7: square-free word semigroups give H_H=2 and side heights k+1", ok)


def test_criterion_8_power_to_subgroup_bound():
    ok = True
    for order in (1, 2, 3, 4):
        for s in census(order):
            n = k_height(s, "H")
            masks = below_masks(s, "H")
            table = s.table
            for a in range(s.order):
                p = a
                for _ in range(n - 1):
                    p = table[p][a]
                q = p
                for _ in range(n):
                    q = table[q][a]
                if masks[p] != masks[q]:
                    ok = False
    _verdict("criterion 8: a^n is H-related to a^(2n) whenever H_H = n", ok)
