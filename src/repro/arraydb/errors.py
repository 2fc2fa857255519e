"""Exception hierarchy for the array DBMS substrate."""


class ArrayDBError(Exception):
    """Base class for all array DBMS errors."""


class SchemaError(ArrayDBError):
    """Raised when a schema is malformed or two schemas are incompatible."""


class ArrayNotFoundError(ArrayDBError):
    """Raised when a query references an array that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"array {name!r} does not exist")
        self.name = name


class ArrayExistsError(ArrayDBError):
    """Raised when creating an array whose name is already taken."""

    def __init__(self, name: str) -> None:
        super().__init__(f"array {name!r} already exists")
        self.name = name
