"""Which digits can a triangular number end with?

Walks through the units-digit structure of the triangular numbers
1, 3, 6, 10, 15, ... in several bases: the exact frequency of every
final digit, the bases where some digits never appear at all, and how
fast empirical counts converge to the exact rationals.
"""

from tridigits import (
    empirical_frequencies,
    power_of_two_sweep,
    residue_profile,
    tri_exact,
    to_digits,
)


def show_profile(base: int) -> None:
    profile = residue_profile(base)
    print(f"base {base}  (pattern repeats every {profile.period} indices)")
    for d, f in profile.frequency.items():
        bar = "#" * round(40 * f)
        print(f"  digit {d:>3}  {f.numerator}/{f.denominator:<4} {bar}")
    if profile.gappy:
        print(f"  never appears: {list(profile.missing_digits)}")
    else:
        print("  every digit appears")
    print()


def main() -> None:
    print("First dozen triangular numbers and their final digits (base 10):")
    for n in range(1, 13):
        value = tri_exact(n)
        print(f"  T({n:>2}) = {value:>3}   ends in {value % 10}")
    print()

    print("Exact units-digit frequencies, selected bases")
    print("=" * 55)
    for base in (10, 8, 3, 16):
        show_profile(base)

    print("Sweep of all bases 2..64: which have gap-free distributions?")
    gap_free = [base for base, gappy in power_of_two_sweep(64) if not gappy]
    print(f"  gap-free bases: {gap_free}")
    print("  exactly the powers of two in this range")
    print()

    print("Empirical counts converge to the exact rationals (base 10):")
    frequency = residue_profile(10).frequency
    for count in (17, 333, 9999, 99_999, 100_000):
        emp = empirical_frequencies(10, count)
        worst = max(abs(emp.proportion(d) - f) for d, f in frequency.items())
        print(f"  first {count:>6} triangular numbers: max deviation {float(worst):.6f}")
    print("  (at any multiple of 20 the match is exact; the pattern has period 20)")
    print()

    n = 10**60
    print(f"Indices of any size are fine: T(10^60) in base 7 ends with digit "
          f"{to_digits(tri_exact(n), 7).units_digit}")


if __name__ == "__main__":
    main()
