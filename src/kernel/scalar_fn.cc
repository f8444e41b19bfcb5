#include "kernel/scalar_fn.h"

#include <cmath>

namespace moaflat::kernel {
namespace {

bool IsCmp(const std::string& fn) {
  return fn == "=" || fn == "!=" || fn == "<" || fn == "<=" || fn == ">" ||
         fn == ">=";
}

Result<Value> ApplyCmp(const std::string& fn, const Value& a,
                       const Value& b) {
  const int c = Value::Compare(a, b);
  if (fn == "=") return Value::Bit(c == 0);
  if (fn == "!=") return Value::Bit(c != 0);
  if (fn == "<") return Value::Bit(c < 0);
  if (fn == "<=") return Value::Bit(c <= 0);
  if (fn == ">") return Value::Bit(c > 0);
  return Value::Bit(c >= 0);
}

Status Arity(const std::string& fn, size_t got, size_t want) {
  if (got == want) return Status::OK();
  return Status::Invalid("scalar fn '" + fn + "' expects " +
                         std::to_string(want) + " args, got " +
                         std::to_string(got));
}

bool IsNumericBinary(const std::string& fn) {
  return fn == "+" || fn == "-" || fn == "*" || fn == "/";
}

}  // namespace

Result<MonetType> ScalarResultType(const std::string& fn,
                                   const std::vector<MonetType>& args) {
  if (IsNumericBinary(fn)) return MonetType::kDbl;
  if (IsCmp(fn) || fn == "and" || fn == "or" || fn == "not" || fn == "like") {
    return MonetType::kBit;
  }
  if (fn == "year" || fn == "month" || fn == "day" || fn == "length") {
    return MonetType::kInt;
  }
  if (fn == "concat") return MonetType::kStr;
  if (fn == "ifthen") {
    if (args.size() == 3) return args[1];
    return Status::Invalid("ifthen expects 3 args");
  }
  return Status::NotImplemented("unknown scalar fn '" + fn + "'");
}

Result<Value> ScalarApply(const std::string& fn,
                          const std::vector<Value>& args) {
  if (IsNumericBinary(fn)) {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 2));
    MF_ASSIGN_OR_RETURN(double a, args[0].ToDouble());
    MF_ASSIGN_OR_RETURN(double b, args[1].ToDouble());
    if (fn == "+") return Value::Dbl(a + b);
    if (fn == "-") return Value::Dbl(a - b);
    if (fn == "*") return Value::Dbl(a * b);
    if (b == 0.0) return Status::ExecutionError("division by zero");
    return Value::Dbl(a / b);
  }
  if (IsCmp(fn)) {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 2));
    return ApplyCmp(fn, args[0], args[1]);
  }
  if (fn == "and" || fn == "or") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 2));
    const bool a = args[0].AsBit();
    const bool b = args[1].AsBit();
    return Value::Bit(fn == "and" ? (a && b) : (a || b));
  }
  if (fn == "not") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 1));
    return Value::Bit(!args[0].AsBit());
  }
  if (fn == "year" || fn == "month" || fn == "day") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 1));
    if (args[0].type() != MonetType::kDate) {
      return Status::TypeError(fn + " expects a date, got " +
                               args[0].ToString());
    }
    const Date d = args[0].AsDate();
    if (fn == "year") return Value::Int(d.Year());
    if (fn == "month") return Value::Int(d.Month());
    return Value::Int(d.Day());
  }
  if (fn == "like") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 2));
    if (args[0].type() != MonetType::kStr ||
        args[1].type() != MonetType::kStr) {
      return Status::TypeError("like expects (str, str)");
    }
    return Value::Bit(LikeMatch(args[0].AsStr(), args[1].AsStr()));
  }
  if (fn == "length") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 1));
    if (args[0].type() != MonetType::kStr) {
      return Status::TypeError("length expects a str");
    }
    return Value::Int(static_cast<int32_t>(args[0].AsStr().size()));
  }
  if (fn == "concat") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 2));
    return Value::Str(args[0].AsStr() + args[1].AsStr());
  }
  if (fn == "ifthen") {
    MF_RETURN_NOT_OK(Arity(fn, args.size(), 3));
    return args[0].AsBit() ? args[1] : args[2];
  }
  return Status::NotImplemented("unknown scalar fn '" + fn + "'");
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer wildcard matcher ('%' = any run, '_' = any one).
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace moaflat::kernel
