"""spegrid: approximate subgame-perfect equilibrium payoff sets of
discounted repeated games by hypercube refinement, and extract finite
automata implementing approximately optimal strategy profiles."""

from .automaton import (Automaton, AutomatonState, PunishmentProfile,
                        SimulationResult, automaton_value, best_deviation,
                        build_full_automaton, decompose_into_vertices,
                        deviation_values, extract_automaton, simulate)
from .feasibility import (LinearSystem, SupportPattern, SupportSolution,
                          UnboundedError, enumerate_support_patterns,
                          solve_feasibility, solve_support_program)
from .game import MixedProfile, PayoffBounds, StageGame, payoff_bounds
from .gamefile import (GameFormatError, list_bundled, load_bundled,
                       parse_game, parse_game_file, serialize_game)
from .geometry import (Cluster, CubeSet, HalfPlane, Hypercube, get_clusters,
                       get_halfplanes, hull_vertices, initial_cube, locate,
                       min_origin, split_all)
from .solver import (SolveReport, SolveSnapshot, SolverConfig,
                     SupportCertificate, cube_completed, cube_supported_pure,
                     cube_supported_mixed, cube_supported_correlated,
                     correlated_support_system, mixed_cluster_system,
                     solve)
from .finalset import verify_certificate
from .svg import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
