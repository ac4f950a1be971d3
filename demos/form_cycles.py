"""Reduced indefinite forms, their rho-cycles, and the length census.

Each positive nonsquare discriminant carries finitely many primitive
reduced forms; the reduction step rho permutes them and the cycles count
form classes. Class number times regulator, normalized by log(sqrt disc),
hovers around 1 on average while individual discriminants scatter.
"""

from quadcf import class_number, duke_scan, duke_stats, reduced_forms, rho, total_length


def main() -> None:
    for disc in (5, 40, 229):
        forms = reduced_forms(disc)
        print(f"disc {disc}: {len(forms)} reduced forms, h = {class_number(disc)}")
        start = forms[0]
        cycle = [start]
        g = rho(start)
        while g != start:
            cycle.append(g)
            g = rho(g)
        path = " -> ".join(f"({F.a},{F.b},{F.c})" for F in cycle[:6])
        more = " -> ..." if len(cycle) > 6 else ""
        print(f"  one cycle ({len(cycle)} forms): {path}{more}")

    print()
    t = total_length(229)
    print(
        f"disc 229: h = {t.h}, reg = {t.reg:.6f}, h*reg = {t.total_length:.6f}, "
        f"exponent = {t.exponent:.4f}"
    )

    print()
    print("census over discriminants 5..3000 (dyadic blocks of disc):")
    stats = duke_stats(duke_scan(5, 3000))
    for k, blk in stats["blocks"].items():
        print(
            f"  2^{k:<2} <= disc < 2^{k + 1:<2}: n = {blk['n']:>4}, "
            f"mean exponent = {blk['mean']:.4f} +- {blk['stdev']:.4f}"
        )
    print(f"  median exponent: {stats['median_exponent']:.4f}")


if __name__ == "__main__":
    main()
