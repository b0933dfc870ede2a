// Recursive-descent parser for the mini-Python subset.
//
// Statement coverage: import / from-import, def (incl. async, decorators,
// default values, *args/**kwargs, annotations), class, if/elif/else,
// for/while (+else), try/except/finally, with, return, raise, assert,
// global/nonlocal, del, pass/break/continue, assignments (chained, augmented,
// annotated), and bare expressions. Expressions use full operator precedence
// with calls, attributes, subscripts, lambdas, ternaries, comprehensions and
// literal displays.
//
// Parsing also resolves the tree for the interpreter (see ast.h): operator
// codes, literal values, f-string fields and name slots.
#pragma once

#include <string_view>

#include "pysrc/ast.h"
#include "pysrc/lexer.h"

namespace lfm::pysrc {

// Parse a complete module. Throws SyntaxError on malformed input.
Module parse_module(std::string_view source);

// Parse a single expression (the whole input must be one expression).
ExprPtr parse_expression(std::string_view source);

// The same, as a module whose body is that one expression statement, so its
// name slots have the table they index.
Module parse_expression_module(std::string_view source);

}  // namespace lfm::pysrc
