"""A reproducible scan from the library API, end to end.

Runs the same deviation scan the `quadcf converge` subcommand performs,
renders the table, and prints the summary statistics. Worker count only
changes wall time, never output: rows are computed per N and put back in
input order.
"""

from quadcf import (
    DeviationRow,
    ScanConfig,
    converge_scan,
    converge_stats,
    converge_summary_lines,
    render_table,
)


def main() -> None:
    cfg = ScanConfig(
        d=2,
        patterns=((1,), (2, 1)),
        sequence="primes",
        bound=200,
        workers=2,
    )
    rows = converge_scan(cfg)
    table = render_table(DeviationRow, rows, "csv")
    head = table.splitlines()
    print("\n".join(head[:8]))
    print(f"... {len(head) - 1} rows total")

    print()
    for line in converge_summary_lines(converge_stats(rows)):
        print(line)

    serial = converge_scan(ScanConfig(d=2, patterns=((1,), (2, 1)), sequence="primes", bound=200))
    print()
    print("parallel run matches serial run:", rows == serial)


if __name__ == "__main__":
    main()
