/**
 * @file
 * Minimal JSON support for the observability layer: string escaping for
 * the writers (trace, manifest, metrics snapshot) and a small DOM
 * parser that serves svard_bench's trace fold and the tests that
 * check those artifacts. Deliberately tiny — no external dependency,
 * no streaming, no SAX — because every producer in this repo emits
 * well-formed documents a few MB at most.
 */
#ifndef SVARD_OBS_JSON_H
#define SVARD_OBS_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace svard::obs::json {

/** Escape a string for embedding between double quotes in JSON. */
std::string escape(const std::string &s);

/** Format a double the way the writers do (shortest round-trip). */
std::string formatNumber(double v);

/**
 * Parsed JSON value. Numbers are kept as doubles (plus the raw text so
 * 64-bit integers such as fingerprints survive exactly via asU64()).
 */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }

    bool asBool() const { return boolean_; }
    double asNumber() const { return number_; }
    /** Exact integer re-parse of the raw token when this is a number
     *  written as plain base-10 digits (no sign, fraction or
     *  exponent) within uint64_t; 0 for any other value. */
    uint64_t asU64() const;
    const std::string &asString() const { return string_; }

    const std::vector<Value> &items() const { return items_; }
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return members_;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /**
     * Parse a complete JSON document. Returns false (with *err set, if
     * given) on malformed input or trailing garbage.
     */
    static bool parse(const std::string &text, Value *out,
                      std::string *err = nullptr);

  private:
    friend class Parser;

    Type type_ = Type::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string raw_; ///< raw number token, for exact integer re-parse
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

} // namespace svard::obs::json

#endif // SVARD_OBS_JSON_H
