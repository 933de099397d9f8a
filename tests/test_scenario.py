from importlib import resources

import pytest

from holdemlab.scenario import ScenarioError, load_scenario, parse_scenario, run_scenario

HAND6 = resources.files("holdemlab").joinpath("data/hand6.scn")


class TestParse:
    def test_shipped_scenario_parses(self):
        sc = load_scenario(HAND6)
        assert sc.name == "hand6"
        assert len(sc.seats) == 6
        assert sc.hero.player_id == "hero"
        assert len(sc.board) == 5

    def test_duplicate_cards_rejected(self):
        text = HAND6.read_text().replace("seat 1 reg_sb MediumReg 120 AhQd", "seat 1 reg_sb MediumReg 120 9h9s")
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(text)

    def test_bad_directive_reports_line(self):
        with pytest.raises(ScenarioError, match=":1:"):
            parse_scenario("flurble 1 2")

    def test_unknown_action_word_reports_line(self):
        text = HAND6.read_text().replace("act reg_sb call", "act reg_sb jump")
        lineno = text.splitlines().index("act reg_sb jump") + 1
        with pytest.raises(ScenarioError, match=f"^hand6.scn:{lineno}: unknown ActionType 'jump'$"):
            parse_scenario(text, source="hand6.scn")

    def test_action_words_are_case_insensitive(self):
        text = HAND6.read_text()
        upper = text.replace("act reg_sb call", "act reg_sb CALL").replace("act whale_bb allin", "act whale_bb AllIn")
        assert parse_scenario(upper).script == parse_scenario(text).script

    def test_script_for_unknown_player_rejected(self):
        text = HAND6.read_text() + "\nact nobody fold\n"
        with pytest.raises(ScenarioError, match="nobody"):
            run_scenario(parse_scenario(text))

    def test_bet_without_amount_rejected(self):
        text = HAND6.read_text().replace("act whale_bb bet 4", "act whale_bb bet")
        with pytest.raises(ScenarioError, match="whale_bb: bet needs an amount"):
            run_scenario(parse_scenario(text))


class TestRun:
    def test_hand6_passes_and_pot_goes_to_the_full_house(self):
        res = run_scenario(load_scenario(HAND6))
        assert res.passed, res.failures
        hero_seat = res.scenario.hero.seat
        assert res.record.net[hero_seat] > 0
        assert dict(res.record.showdown)[2] == tuple(
            __import__("holdemlab.cards", fromlist=["parse_cards"]).parse_cards("4d3d")
        )

    def test_no_actions_scenario_stays_preflop(self):
        text = """
        name empty
        blinds 1 2
        button 0
        seat 0 btn_reg MediumReg 100 AhQd
        seat 1 sb_reg MediumReg 100 KcQs
        seat 2 whale Whale 100 4d3d
        seat 3 hero hero 100 8c3h
        board 9d 5s 2c 2d Ks
        """
        res = run_scenario(parse_scenario(text))
        assert res.passed
        assert all(s.street == "preflop" for s in res.steps)

    def test_failing_assertion_reported_with_line(self):
        text = HAND6.read_text() + "\nassert grid_weight whale_bb 2h2s > 0.9\n"
        res = run_scenario(parse_scenario(text))
        assert not res.passed
        assert any("grid_weight" in f for f in res.failures)

    def test_trace_text_contains_pipeline(self):
        res = run_scenario(load_scenario(HAND6))
        text = res.trace_text()
        assert "RET18" in text and "chib" in text.lower()
