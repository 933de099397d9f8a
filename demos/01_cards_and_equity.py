"""Hand evaluation and the equity oracles.

Everything downstream trusts these primitives, so this walk-through shows
them working from first principles: evaluating made hands, enumerating
runouts exactly, and averaging equity over a weighted range.
"""
import numpy as np

from holdemlab.cards import (
    equity_exhaustive,
    equity_vs_range,
    evaluate7,
    parse_cards,
)
from holdemlab.rangegrid import ComboGrid
from holdemlab.rsm import BoardContext

hero = parse_cards("9h9s")
board = parse_cards("9d5s2c2dKs")

# Best five of seven: pocket nines on a paired board make a full house.
value = evaluate7(hero, board)
print(f"9h9s on {'/'.join(['9d5s2c', '2d', 'Ks'])}: {value.category.name} {value.tiebreak}")

# A busted combo draw on the same river plays the board's pair of twos.
busted = evaluate7(parse_cards("4d3d"), board)
print(f"4d3d on the same river: {busted.category.name} {busted.tiebreak}")

# Exact equity by enumerating every remaining card. On the turn the full
# house is already unbeatable against the draw: all 44 rivers lose.
turn = parse_cards("9d5s2c2d")
eq = equity_exhaustive(hero, parse_cards("4d3d"), turn)
print(f"\nturn equity, full house vs combo draw: {eq:.3f}")

# Same machinery on the flop, where the draw still has live outs.
flop = parse_cards("9d5s2c")
eq_flop = equity_exhaustive(hero, parse_cards("4d3d"), flop)
print(f"flop equity (990 runouts enumerated): {eq_flop:.3f}")

# Equity against a whole weighted range: a uniform random hand here. The
# range operations read the board from its context, built once per board.
grid = ComboGrid.uniform().strip(hero + flop)
eq_range = equity_vs_range(hero, grid.weights, BoardContext(flop))
print(f"flop equity vs a uniform range: {eq_range:.3f}")
