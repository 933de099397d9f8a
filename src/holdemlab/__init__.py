"""Exploitative no-limit hold'em engine and table laboratory."""

from .cards import (
    Card,
    DealRng,
    HandCategory,
    HandValue,
    InvalidCardsError,
    card_index,
    card_str,
    equity_exhaustive,
    equity_vs_range,
    evaluate7,
    parse_cards,
)
from .rangegrid import (
    ClassGrid169,
    ComboGrid,
    assign_preflop_range,
    load_range_file,
)
from .rsm import BoardContext, RsCategory, RsmTable, board_texture
from .rets import (
    RET,
    OpponentRangeTracker,
    RetDispatch,
    chib,
    load_ret_set,
    reshape,
    rs_distribution,
)
from .profiles import Exploit, PlayerStats, ProfileStore, classify
from .brain import Brain, DecisionContext, Recommendation, StyleState
from .table import BotPolicy, HandRecord, RakeModel, SeatConfig, play_hand, replay_hand
from .session import SessionConfig, run_fastfold_session
from .metrics import (
    FailureCostModel,
    ResultLedger,
    TrialReport,
    all_in_adjusted,
    bb100,
    failure_cost,
    segment_analysis,
)
from .learning import PredictionRecord, apply_learning, replay_with_perfect_info
from .scenario import load_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Card",
    "DealRng",
    "HandCategory",
    "HandValue",
    "InvalidCardsError",
    "card_index",
    "card_str",
    "equity_exhaustive",
    "equity_vs_range",
    "evaluate7",
    "parse_cards",
    "ClassGrid169",
    "ComboGrid",
    "assign_preflop_range",
    "load_range_file",
    "BoardContext",
    "RsCategory",
    "RsmTable",
    "board_texture",
    "RET",
    "OpponentRangeTracker",
    "RetDispatch",
    "chib",
    "load_ret_set",
    "reshape",
    "rs_distribution",
    "Exploit",
    "PlayerStats",
    "ProfileStore",
    "classify",
    "Brain",
    "DecisionContext",
    "Recommendation",
    "StyleState",
    "BotPolicy",
    "HandRecord",
    "RakeModel",
    "SeatConfig",
    "play_hand",
    "replay_hand",
    "SessionConfig",
    "run_fastfold_session",
    "FailureCostModel",
    "ResultLedger",
    "TrialReport",
    "all_in_adjusted",
    "bb100",
    "failure_cost",
    "segment_analysis",
    "PredictionRecord",
    "apply_learning",
    "replay_with_perfect_info",
    "load_scenario",
    "run_scenario",
]
