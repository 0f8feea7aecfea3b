"""Data-center incast (the §4.1.8 / Figure 10 scenario).

Many senders simultaneously transfer a block to one receiver through a
shallow-buffered 1 Gbps switch port.  TCP suffers goodput collapse once the
fan-in grows; PCC sustains most of the line rate.

The scenario is the ``fig10`` report spec: one sweep grid per block size on
the ``incast`` topology and workload (8, 16 and 24 senders, PCC and CUBIC).
The spec's rows compute each cell's barrier goodput; this script prints them
and the claims they are checked against.

Run with:  python examples/datacenter_incast.py
"""

from repro.report import run_report_spec


def main() -> None:
    outcome = run_report_spec("fig10")
    print("=== Incast: 1 Gbps fabric, 64 KB port buffer ===")
    print(f"{'block':>6} {'senders':>8} {'pcc (Mbps)':>12} {'cubic (Mbps)':>14}")
    for row in outcome.rows:
        print(f"{row['block_kb']:>4.0f}KB {row['senders']:>8} "
              f"{row['pcc']:>12.1f} {row['cubic']:>14.1f}")
    print("\n(goodput = total bytes / time until the last flow finishes)")
    for claim in outcome.claims:
        print(f"{claim.status:<9} {claim.claim.text}")


if __name__ == "__main__":
    main()
