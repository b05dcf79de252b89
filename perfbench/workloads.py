"""The benchmark's user requests, shared by the harness and the sample runner.

Each workload is one fixed (k, digits) request for the coefficients c_N,
N in `ns`; nothing in it is random.  max(ns) is the largest W weight the
request needs: the traced sample pre-calls W_coeff at that weight so the W
engine gets a span of its own, and the CLI workload precomputes its cache up
to it.
"""

WORKLOADS = {
    # c_4 .. c_0 of P_3 in one process, largest weight first, so the W table
    # built for c_4 serves the rest through the in-process cache.
    "lead5-k3-d15": {"kind": "coeffs", "k": 3, "digits": 15,
                     "ns": [4, 3, 2, 1, 0]},
    "c0-k3-d50": {"kind": "coeffs", "k": 3, "digits": 50, "ns": [0]},
    "cli-k2-d10-cached": {"kind": "cli", "k": 2, "digits": 10,
                          "ns": [0, 1, 2, 3, 4]},
}
