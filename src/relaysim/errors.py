"""Exception hierarchy shared by all relaysim modules.

Each error type carries the exit status `relaysim` returns for it.
"""

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = 2
EXIT_PLANNING = 3
EXIT_EXECUTION = 4


class RelaysimError(Exception):
    """Base class for all relaysim errors; a planning or geometry failure by default."""

    exit_code = EXIT_PLANNING


# geometry
class EmptySites(RelaysimError):
    pass


class SiteOutsideWorkspace(RelaysimError):
    pass


class SitesTooClose(RelaysimError):
    pass


class PointOutsideWorkspace(RelaysimError):
    pass


class UnknownRobotId(RelaysimError):
    pass


class DegenerateSites(RelaysimError):
    pass


class DegenerateEdge(RelaysimError):
    pass


# world
class CellOutOfBounds(RelaysimError):
    pass


class UnknownZone(RelaysimError):
    exit_code = EXIT_PARSE


# nlu
class UnparsableCommand(RelaysimError):
    exit_code = EXIT_PARSE


class SameZone(RelaysimError):
    exit_code = EXIT_PARSE


class EndpointUnreachable(RelaysimError):
    exit_code = EXIT_OTHER


class MalformedResponse(RelaysimError):
    exit_code = EXIT_PARSE


# planning
class NoPath(RelaysimError):
    pass


class BlockedEndpoint(RelaysimError):
    pass


# coordination
class IllegalTransition(RelaysimError):
    pass


# simulation
class PlacementExhausted(RelaysimError):
    pass


class InvalidStart(RelaysimError):
    """A robot starts in a blocked cell or in another robot's cell."""


class NoCompletedTrials(RelaysimError):
    pass


# cli
class UsageError(RelaysimError):
    """A malformed input file, or flags that do not fit the config."""

    exit_code = EXIT_PARSE


class TrialIncomplete(RelaysimError):
    """A trial used up its tick budget."""

    exit_code = EXIT_EXECUTION
