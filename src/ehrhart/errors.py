"""Exception types shared across the package, and the CLI's exit-code table:
each class's ``exit_code`` is what ``ehrhart.cli.main`` exits with when the
error ends a command.  The base class says 5, internal-inconsistency: a
package error that no subclass classifies is a fault, never bad input."""


class EhrhartError(Exception):
    """Base class for all package errors."""
    exit_code = 5


class InvalidInputError(EhrhartError):
    """A usage error, a malformed entry, or a file the CLI cannot read or write."""
    exit_code = 1


class DimensionError(EhrhartError):
    """Matrix or point dimensions do not match the operation's requirements."""
    exit_code = 1


class SingularMatrixError(EhrhartError):
    """A nonsingular matrix was required but det = 0."""


class DegenerateSimplexError(EhrhartError):
    """Vertex set is affinely dependent; the offending index is attached."""
    exit_code = 1

    def __init__(self, index: int):
        super().__init__(f"vertex {index} is affinely dependent on the previous vertices")
        self.index = index


class ParameterError(EhrhartError):
    """A construction was called with parameters outside its family."""
    exit_code = 1


class BudgetExceededError(EhrhartError):
    """A task would exceed the configured work budget: ``needed`` of what it
    counts, ``unit``, against ``budget``.  The box route counts box points
    and the counting route bounding-box points, both as an enumeration."""
    exit_code = 4

    def __init__(self, needed: int, budget: int, task: str = "enumeration", unit: str = "points"):
        super().__init__(f"{task} needs {needed} {unit}, budget is {budget}")
        self.needed = needed
        self.budget = budget


class InconsistentCountsError(EhrhartError):
    """A counting sequence produced a negative delta entry, so it cannot come
    from an integral polytope."""


class NotRealizableError(EhrhartError):
    """realize() was called on a candidate the classifier rejects."""
    exit_code = 2


class OutOfScopeError(EhrhartError):
    """The request falls outside the classified range (sum > 3 or d < 3)."""
    exit_code = 3


class InternalInconsistencyError(EhrhartError):
    """Two methods that must agree disagreed; indicates a bug, never bad input."""
