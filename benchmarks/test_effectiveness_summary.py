"""§6.2 "Evaluation summary" — effectiveness under real failures.

Paper conclusion: "The grid quorum based routing algorithm effectively
and rapidly finds optimal one-hop overlay routes even in the presence of
numerous link failures and high packet loss ... while scaling far better
than prior overlay routing systems."

This benchmark checks the end state of the shared 140-node deployment:
among pairs that are reachable at all on the failure-adjusted underlay,
almost all have a working route and the vast majority are within 10% of
the true optimal one-hop.
"""

from conftest import published


def test_effectiveness_summary():
    deployment = published("deployment")
    assert deployment.route_availability_fraction > 0.95
    assert deployment.route_optimality_fraction > 0.90
