#ifndef MOAFLAT_KERNEL_SCALAR_FN_H_
#define MOAFLAT_KERNEL_SCALAR_FN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace moaflat::kernel {

/// The scalar operation vocabulary available to the multiplex constructor
/// [f](...) of Fig. 4 ("bulk application of any algebraic operation").
///
/// Arithmetic:  "+", "-", "*", "/"          (numeric -> dbl)
/// Comparison:  "=", "!=", "<", "<=", ">", ">="  (-> bit)
/// Logical:     "and", "or", "not"          (bit -> bit)
/// Calendar:    "year", "month", "day"      (date -> int)
/// Strings:     "like" (SQL pattern -> bit), "length" (-> int),
///              "concat" (-> str)
/// Conditional: "ifthen" (bit, x, y -> x/y)
///
/// This is the extension point mirroring Monet's run-time extensible
/// operator set (Section 2, "algebra commands and operators can be added").

/// Result type of `fn` applied to arguments of the given types.
Result<MonetType> ScalarResultType(const std::string& fn,
                                   const std::vector<MonetType>& args);

/// Applies `fn` to boxed arguments.
Result<Value> ScalarApply(const std::string& fn,
                          const std::vector<Value>& args);

/// SQL LIKE matching with '%' (any run) and '_' (any single char).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace moaflat::kernel

#endif  // MOAFLAT_KERNEL_SCALAR_FN_H_
