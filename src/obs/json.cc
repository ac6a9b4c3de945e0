#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace svard::obs::json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no inf/nan; observability data clamps
    char buf[40];
    // %.17g round-trips any double; trim to the shortest that does.
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

uint64_t
Value::asU64() const
{
    // strtoull alone would wrap "-1" and stop at "2.5"'s dot; only an
    // all-digit token that does not overflow is an integer here.
    if (type_ != Type::Number || raw_.empty() ||
        raw_.find_first_not_of("0123456789") != std::string::npos)
        return 0;
    errno = 0;
    const uint64_t v = std::strtoull(raw_.c_str(), nullptr, 10);
    return errno == ERANGE ? 0 : v;
}

const Value *
Value::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

/** Recursive-descent parser over the full input string. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : s_(text), err_(err)
    {
    }

    bool
    run(Value *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != s_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        if (err_)
            *err_ = msg + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, size_t len)
    {
        if (s_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    parseValue(Value *out)
    {
        if (depth_ > 128)
            return fail("nesting too deep");
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        switch (s_[pos_]) {
        case '{': return parseObject(out);
        case '[': return parseArray(out);
        case '"':
            out->type_ = Value::Type::String;
            return parseString(&out->string_);
        case 't':
            out->type_ = Value::Type::Bool;
            out->boolean_ = true;
            return literal("true", 4);
        case 'f':
            out->type_ = Value::Type::Bool;
            out->boolean_ = false;
            return literal("false", 5);
        case 'n':
            out->type_ = Value::Type::Null;
            return literal("null", 4);
        default: return parseNumber(out);
        }
    }

    bool
    parseObject(Value *out)
    {
        out->type_ = Value::Type::Object;
        ++pos_; // '{'
        ++depth_;
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            Value v;
            if (!parseValue(&v))
                return false;
            out->members_.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated object");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value *out)
    {
        out->type_ = Value::Type::Array;
        ++pos_; // '['
        ++depth_;
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        for (;;) {
            skipWs();
            Value v;
            if (!parseValue(&v))
                return false;
            out->items_.push_back(std::move(v));
            skipWs();
            if (pos_ >= s_.size())
                return fail("unterminated array");
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string *out)
    {
        ++pos_; // opening quote
        out->clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= s_.size())
                break;
            const char e = s_[pos_++];
            switch (e) {
            case '"': out->push_back('"'); break;
            case '\\': out->push_back('\\'); break;
            case '/': out->push_back('/'); break;
            case 'b': out->push_back('\b'); break;
            case 'f': out->push_back('\f'); break;
            case 'n': out->push_back('\n'); break;
            case 'r': out->push_back('\r'); break;
            case 't': out->push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > s_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs unneeded for our data;
                // lone surrogates encode as-is).
                if (cp < 0x80) {
                    out->push_back(char(cp));
                } else if (cp < 0x800) {
                    out->push_back(char(0xC0 | (cp >> 6)));
                    out->push_back(char(0x80 | (cp & 0x3F)));
                } else {
                    out->push_back(char(0xE0 | (cp >> 12)));
                    out->push_back(char(0x80 | ((cp >> 6) & 0x3F)));
                    out->push_back(char(0x80 | (cp & 0x3F)));
                }
                break;
            }
            default: return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value *out)
    {
        const size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        out->type_ = Value::Type::Number;
        out->raw_ = s_.substr(start, pos_ - start);
        char *end = nullptr;
        out->number_ = std::strtod(out->raw_.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number");
        return true;
    }

    const std::string &s_;
    std::string *err_;
    size_t pos_ = 0;
    int depth_ = 0;
};

bool
Value::parse(const std::string &text, Value *out, std::string *err)
{
    Parser p(text, err);
    return p.run(out);
}

} // namespace svard::obs::json
