"""Pure-strategy solving on the duopoly game (reconstructed from Abreu 1988).

Each firm picks a low, medium or high output level.  The collusive outcome
(L,L) pays (10,10); the stage equilibrium (M,M) pays (7,7); the minmax
payoff is 0.  With enough patience, collusion is sustainable by credible
punishment paths whose value pins the deviator at the (0,0) floor, so both
(10,10) and (0,0) stay in the computed set.

This demo runs the pure back-end at a coarse precision to keep it quick.
Run it as a script; importing it only defines ``minmax``.
"""

from pathlib import Path

import spegrid as sg


def minmax(game: sg.StageGame, player: int) -> float:
    """The worst payoff the opponent of a two-player game can force on a
    best-responding `player`: the opponent minimises over mixed actions,
    solved as a small LP."""
    opp = 1 - player
    k = game.action_count(opp)
    sys = sg.LinearSystem()
    for b in range(k):
        sys.add_variable(f"q{b}", low=0.0, high=1.0)
    sys.add_variable("v")
    sys.add_constraint({f"q{b}": 1.0 for b in range(k)}, "=", 1.0)
    for a in range(game.action_count(player)):
        coeffs = {"v": -1.0}
        for b in range(k):
            profile = (a, b) if player == 0 else (b, a)
            coeffs[f"q{b}"] = game.payoff_to(profile, player)
        sys.add_constraint(coeffs, "<=", 0.0)
    sys.set_objective({"v": 1.0})
    # the mixtures form a simplex, so the LP is never infeasible
    return float(sg.solve_feasibility(sys)["v"])


def main():
    out = Path("demo_out/duopoly")
    out.mkdir(parents=True, exist_ok=True)

    game = sg.load_bundled("duopoly_abreu")
    bounds = sg.payoff_bounds(game)
    print("duopoly payoffs between", bounds.low, "and", bounds.high)
    print("minmax payoffs:", [minmax(game, i) for i in range(2)])

    report = sg.solve(game, sg.SolverConfig(gamma=0.6, epsilon=2.0,
                                            mode="pure", frozen_passes=True))
    print(f"\ngamma=0.6 pure: {report.status}, {len(report.final)} cubes of "
          f"side {report.final.side:g} after {len(report.iterations)} "
          "iterations")
    for point in [(10.0, 10.0), (7.0, 7.0), (0.0, 0.0)]:
        print(f"  {point} in the set:",
              sg.locate(point, report.final) is not None)

    path = out / "duopoly_pure.svg"
    path.write_text(sg.render_svg([c.origin for c in report.final],
                                  report.final.side, bounds,
                                  title="duopoly, pure, gamma=0.6"))
    print(f"wrote {path}")

    M = sg.extract_automaton(report.final, report.certificates, (10.0, 10.0),
                             game)
    value = sg.automaton_value(M, 0.6)[M.initial]
    print(f"\nautomaton at (10,10): {len(M)} states, value "
          f"{tuple(round(float(v), 3) for v in value)}")
    for i in range(2):
        gain = sg.best_deviation(M, i, 0.6) - value[i]
        print(f"  player {i + 1} best deviation gain: {gain:.4f}")


if __name__ == "__main__":
    main()
