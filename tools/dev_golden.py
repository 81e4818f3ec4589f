"""Construct the worked single-claim fixture and freeze oracle constants.

Back-solves actions from the published prediction path, re-derives every
reward row from first principles (independent of env.py), pins the
smoothing ramp length, and solves the weight scale that reproduces the
published terminal accuracy reward at alpha = 1.

Run from the repository root, ``python tools/dev_golden.py``; it rewrites
the three ``golden_claim_*`` files under ``src/microreserve/fixtures``.
"""

import csv
import math
import os

# DP, txn_type, cumpaid, n_pay, case_ocl, rl_pred, true_ocl, Rstab, Rsmooth, Racc
TABLE = [
    (2, "Ma", 0.0, 0, 289257.2, 519377.1, 364472.9, -0.0033, -0.0003, 0.0),
    (3, "P", 6768.9, 1, 282488.3, 484056.6, 357704.0, 0.0, 0.0, 0.0),
    (4, "", 6768.9, 1, 282488.3, 489150.9, 357704.0, 0.0363, -0.0001, 0.0),
    (5, "P", 12678.5, 2, 276578.7, 348606.7, 351794.4, 0.0, 0.0, 0.0),
    (6, "PMi", 19322.9, 3, 320783.0, 269355.0, 345150.0, 0.0, 0.0, 0.0),
    (7, "", 19322.9, 3, 320783.0, 277343.3, 345150.0, 0.1864, -0.0011, 0.0),
    (8, "P", 27497.3, 4, 312608.5, 332400.9, 336975.5, 0.0, 0.0, 0.0),
    (9, "PMi", 37795.6, 5, 326677.3, 436967.4, 326677.3, 0.0, 0.0, 0.0),
    (10, "", 37795.6, 5, 326677.3, 448353.7, 326677.3, 0.2418, -0.0012, 0.0),
    (11, "P", 48219.6, 6, 316253.3, 556969.0, 316253.3, 0.0, 0.0, 0.0),
    (12, "P", 57578.0, 7, 306894.9, 675621.4, 306894.9, 0.0, 0.0, 0.0),
    (13, "P", 333857.8, 8, 30615.1, 675411.8, 30615.1, 0.0, 0.0, 3.7502),
]
AP = 34
OCL0 = 499175.5
ULTIMATE = 364472.9
GAMMA, K, C = 0.99, 2.0, 5.0
LN_K = math.log(K)


def h(y, yh):
    d = (abs(y) + abs(yh)) / 2.0
    return 1.0 if d == 0 else 1.0 - abs(yh - y) / d


preds = [row[5] for row in TABLE]
paid = [row[2] for row in TABLE]
trues = [row[6] for row in TABLE]
prev = [OCL0] + preds[:-1]
actions = [math.log(p / q) for p, q in zip(preds, prev)]
payments = [bool(set(row[1].split("|")) & {"P", "PMi", "PMa"}) if row[1] else False for row in TABLE]

# implied ultimates UL_0..UL_12 (UL_0 uses paid at notification = 0)
ul = [OCL0 + 0.0] + [p + q for p, q in zip(preds, paid)]

T = 13  # settlement PSN; predictions tau = 1..12
r_stab = []
for tau in range(1, T):
    if payments[tau - 1]:
        r_stab.append(0.0)
    elif tau == 1:
        r_stab.append(-((abs(actions[0]) / LN_K) ** 2))
    elif tau <= T - 2:
        r_stab.append(GAMMA * h(ul[tau], ul[tau - 1]) - h(ul[tau - 1], ul[tau - 2]))
    else:
        r_stab.append(-h(ul[tau - 1], ul[tau - 2]))

print("pinning m_warmup: residuals vs published 4dp rows")
for m_warm in (9, 10, 11, 12):
    errs = []
    for tau in range(1, T):
        if payments[tau - 1]:
            val = 0.0
        else:
            val = -min(1.0, tau / m_warm) * (abs(actions[tau - 1]) / LN_K) ** 2
        errs.append(abs(val - TABLE[tau - 1][8]))
    print(f"  M={m_warm}: max |resid| {max(errs):.6f}")

M_WARM = 10
r_smooth = []
for tau in range(1, T):
    if payments[tau - 1]:
        r_smooth.append(0.0)
    else:
        r_smooth.append(-min(1.0, tau / M_WARM) * (abs(actions[tau - 1]) / LN_K) ** 2)

disc = [GAMMA ** (tau - 1) for tau in range(1, T)]
hs = [h(y, p) for y, p in zip(trues, preds)]
sum_disc = sum(disc)
racc_unweighted = C * sum(d * hh for d, hh in zip(disc, hs)) / sum_disc
print("unweighted r_acc:", repr(racc_unweighted))

# alpha=1: r_acc = (C/s) * sum(OCL_tau * disc * h) / sum_disc = 3.7502
numer = sum(o * d * hh for o, d, hh in zip(trues, disc, hs))
s_solved = C * numer / (3.7502 * sum_disc)
print("solved s at alpha=1:", repr(s_solved))
racc_w = C * sum((o / s_solved) * d * hh for o, d, hh in zip(trues, disc, hs)) / sum_disc
print("weighted r_acc check:", racc_w)

print("\nrow check (tau, action, r_stab ours/table, r_smooth ours/table):")
for tau in range(1, T):
    row = TABLE[tau - 1]
    print(
        f"  tau={tau:2d} a={actions[tau-1]: .6f} "
        f"stab {r_stab[tau-1]: .6f} / {row[7]: .4f}  "
        f"smooth {r_smooth[tau-1]: .6f} / {row[8]: .4f}"
    )

# ---- write fixtures ----------------------------------------------------------
os.makedirs("src/microreserve/fixtures", exist_ok=True)

# Transactions: notification Ma at DP2; per-DP txns at t = AP + DP - 1,
# times chosen inside each period; settlement payment at DP14.
rows = []


def add(dp, time_frac, typ, cumpaid, case):
    t = AP + dp - 1 - 1 + time_frac  # inside (AP+dp-2, AP+dp-1]
    rows.append((t, typ, cumpaid, case))


add(2, 0.6, "Ma", 0.0, 289257.2)
add(3, 0.4, "P", 6768.9, 282488.3)
add(5, 0.5, "P", 12678.5, 276578.7)
add(6, 0.5, "PMi", 19322.9, 320783.0)
add(8, 0.5, "P", 27497.3, 312608.5)
add(9, 0.5, "PMi", 37795.6, 326677.3)
add(11, 0.5, "P", 48219.6, 316253.3)
add(12, 0.5, "P", 57578.0, 306894.9)
add(13, 0.5, "P", 333857.8, 30615.1)
add(14, 0.5, "PMa", ULTIMATE, 0.0)

with open("src/microreserve/fixtures/golden_claim_txns.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(
        ["claim_no", "claim_size", "txn_time", "txn_type", "incurred", "OCL", "cumpaid", "accident_period"]
    )
    for t, typ, cum, case in rows:
        w.writerow(["G1", repr(ULTIMATE), repr(t), typ, repr(cum + case), repr(case), repr(cum), AP])

with open("src/microreserve/fixtures/golden_claim_expected.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(
        ["dev_period", "tau", "prev_ocl", "pred_ocl", "true_ocl", "action", "payment",
         "r_stab_exact", "r_smooth_exact", "table_r_stab", "table_r_smooth", "table_r_acc"]
    )
    for tau in range(1, T):
        row = TABLE[tau - 1]
        w.writerow(
            [row[0], tau, repr(prev[tau - 1]), repr(preds[tau - 1]), repr(trues[tau - 1]),
             repr(actions[tau - 1]), int(payments[tau - 1]), repr(r_stab[tau - 1]),
             repr(r_smooth[tau - 1]), repr(row[7]), repr(row[8]), repr(row[9])]
        )

import json

with open("src/microreserve/fixtures/golden_claim_config.json", "w") as fh:
    json.dump(
        {
            "k": K,
            "gamma": GAMMA,
            "c_acc": C,
            "m_warmup": M_WARM,
            "alpha_w": 1.0,
            "s_scale": s_solved,
            "n_past": 5,
            "state_profile": "splice_full",
            "ocl0": OCL0,
            "racc_unweighted": racc_unweighted,
            "racc_weighted": 3.7502,
        },
        fh,
        indent=1,
    )
print("\nfixtures written")
