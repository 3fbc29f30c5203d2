(** Equation-notation front end — the paper's stated ultimate goal (§1):
    "a translator of equations in the form of (1) ... to modules in this
    language".

    The notation is the paper's display mathematics, linearized:

    {v
relaxation(InitialA[i,j], M, maxK) -> newA[i,j]
where i, j = 0 .. M+1; k = 2 .. maxK
A_{1,i,j}  = InitialA_{i,j}
A_{k,i,j}  = if i = 0 or j = 0 or i = M+1 or j = M+1
             then A_{k-1,i,j}
             else (A_{k-1,i,j-1} + A_{k-1,i-1,j}
                 + A_{k-1,i,j+1} + A_{k-1,i+1,j}) / 4
newA_{i,j} = A_{maxK,i,j}
    v}

    Subscripts and superscripts are all written as subscripts, exactly as
    §2 prescribes for PS itself.  The [where] clause declares the index
    ranges; array parameters/results list their index names; every other
    defined name becomes a local array whose extent at each position is
    the convex hull of the ranges and constants used there (so [A] above
    is allocated over [1 .. maxK]).  Scalars used in range bounds are
    [int]; everything else is [real].

    Lexical rules: the text is read by the PS lexer, so
    - names are PS identifiers (a letter or [_], then letters, digits
      and [_]; case-sensitive);
    - the PS keywords are reserved in any case: [module], [type],
      [var], [define], [end], [of], [array], [record], [if], [then],
      [else], [and], [or], [not], [div], [mod], [int], [real], [bool],
      [true] and [false];
    - literals and comments are PS's: [42], [2.5], [1.0e-3], [true],
      [false], and nesting [(* ... *)];
    - every expression is a PS expression, with PS precedence.

    Beyond PS: [#] starts a comment to the end of the line, wherever it
    stands (inside [(* ... *)] too); [X_{e, ...}] is the subscript
    [X[e, ...]], and a missing [}] is reported as a missing [']']; [->],
    with no space inside, separates the parameters from the results;
    and [where], in any case, right after the results opens the range
    clause. *)

exception Error of string * Ps_lang.Loc.span

val translate : string -> Ps_lang.Ast.pmodule
(** Parse the notation and build the PS module it denotes.  Expressions
    and declarations carry their spans in the notation's text.
    @raise Error on malformed notation (lexical and syntax errors
    included), a missing range, or array extents that cannot be ordered
    symbolically. *)
