/**
 * @file
 * A small recursive-descent JSON reader (JsonValue/parseJson), the
 * test-side oracle for the documents the library writes: the JSON
 * writer's round trips and the provenance manifest.  The library
 * itself only writes JSON (util/json.hh).
 */

#ifndef XBSP_TESTS_JSON_READER_HH
#define XBSP_TESTS_JSON_READER_HH

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace xbsp
{

/** Malformed input handed to parseJson(). */
class JsonParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parsed JSON document node.  Objects keep their members in document
 * order (our writers emit deterministic key order; the reader
 * preserves it).  Numbers are stored as doubles — every integer this
 * repo emits fits a double's 53-bit mantissa exactly.  Accessors
 * throw JsonParseError on kind mismatch so consumers of malformed
 * documents fail with a message instead of crashing.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return what; }
    bool isNull() const { return what == Kind::Null; }
    bool isObject() const { return what == Kind::Object; }
    bool isArray() const { return what == Kind::Array; }

    /** Checked scalar accessors. */
    bool asBool() const;
    double asNumber() const;
    u64 asU64() const;
    const std::string& asString() const;

    /** Checked container accessors. */
    const std::vector<JsonValue>& items() const;
    const std::vector<Member>& members() const;

    /** Object member by key; throws when absent or not an object. */
    const JsonValue& at(std::string_view key) const;

    /** Object member by key; nullptr when absent. */
    const JsonValue* find(std::string_view key) const;

    /** Array element; throws when out of range or not an array. */
    const JsonValue& at(std::size_t index) const;

    std::size_t size() const;

  private:
    friend class JsonParser;

    Kind what = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> array;
    std::vector<Member> object;
};

/**
 * Parse one complete JSON document (trailing whitespace allowed,
 * trailing garbage is an error).  Throws JsonParseError with an
 * offset-bearing message on malformed input.
 */
JsonValue parseJson(std::string_view text);

/** parseJson() over the full contents of a file. */
JsonValue parseJsonFile(const std::string& path);

} // namespace xbsp

#endif // XBSP_TESTS_JSON_READER_HH
