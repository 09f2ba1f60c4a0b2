"""Exception hierarchy shared by all relaysim modules."""


class RelaysimError(Exception):
    """Base class for all relaysim errors."""


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
    pass


# nlu
class UnparsableCommand(RelaysimError):
    pass


class SameZone(RelaysimError):
    pass


class EndpointUnreachable(RelaysimError):
    pass


class MalformedResponse(RelaysimError):
    pass


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
