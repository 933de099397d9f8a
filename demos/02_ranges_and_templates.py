"""Opponent range modeling: grids, card removal, and reshaping templates.

The read starts as a pre-flop grid keyed by archetype, loses combos to
card removal, and then every observed action multiplies a template over
the 11-point strength categories into the combo weights. The output at
each step is a strength distribution and ChiB, the chance the hero is
currently beaten.
"""
import numpy as np

from holdemlab.cards import parse_cards
from holdemlab.rangegrid import assign_preflop_range
from holdemlab.rets import chib, load_ret_set, reshape, rs_distribution
from holdemlab.rsm import BoardContext, RsCategory, RsmTable

rsm = RsmTable()
rets = load_ret_set()

hero = parse_cards("9h9s")
flop = parse_cards("9d5s2c")
# Every range operation below reads the flop from its context: the
# features of all 1,326 combos on that board, built once.
ctx = BoardContext(flop)


def show(label, dist):
    cells = " ".join(f"{RsCategory(i).label[:4]}={dist[i]:.2f}" for i in range(11) if dist[i] >= 0.005)
    print(f"{label:<28} {cells}")


# A very loose defender's pre-flop range, then the flop falls and the
# board cards (plus the hero's own nines) come out of it.
whale = assign_preflop_range("Whale", "call")
print(f"whale pre-flop support: {whale.support_fraction():.0%} of all 1,326 combos")
whale = whale.strip(flop + hero)
print(f"after card removal:     {whale.support_count()} combos live")

baseline = rs_distribution(whale, ctx, rsm)
show("\nflop baseline (flat)", baseline)
print(f"nothing-much mass (Niente+HardlyAnything): {baseline[0] + baseline[1]:.0%}")
print(f"Fair or better: {baseline[3:].sum():.0%}")

# The whale leads into the raiser: the donk-bet template cuts the air and
# promotes made hands and draws. A template weighs each combo by its
# strength category on the flop.
categories = rsm.categories_many(ctx)
led = reshape(whale, rets["RET18"], categories)
show("after the donk bet (RET18)", rs_distribution(led, ctx, rsm))

# Then calls a raise: the strongest holdings thin out (no reraise, twice).
called = reshape(led, rets["RET33"], categories)
show("after calling the raise (RET33)", rs_distribution(called, ctx, rsm))

print(f"\nhero ChiB on the flop vs that range: {chib(hero, called, ctx):.4f}")

# Templates are shapes, not magnitudes: scaling one changes nothing.
scaled = reshape(whale, rets["RET18"], categories)
print("scale invariance holds:", np.allclose(led.weights, scaled.weights))
