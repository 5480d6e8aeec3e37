/**
 * @file
 * Streaming JSON emitter shared by the stats registry dump, the trace
 * writer, the provenance manifest and the task-graph dump.  One writer
 * per document: containers are opened/closed explicitly, commas,
 * newlines and indentation are managed automatically, strings are
 * escaped per RFC 8259, and key order is exactly the call order — so
 * documents built from sorted containers have stable, diffable key
 * order.
 */

#ifndef XBSP_UTIL_JSON_HH
#define XBSP_UTIL_JSON_HH

#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xbsp
{

/** Stream-backed JSON writer; see the file comment for contracts. */
class JsonWriter
{
  public:
    /** Write to `os`, indenting nested containers by `indent`. */
    explicit JsonWriter(std::ostream& os, int indent = 2);

    /** All containers must be closed before destruction (panics). */
    ~JsonWriter();

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    JsonWriter& beginObject();
    JsonWriter& endObject();
    JsonWriter& beginArray();
    JsonWriter& endArray();

    /** Emit an object key; the next value call supplies its value. */
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view text);
    JsonWriter& value(const char* text);
    JsonWriter& value(bool flag);

    /** Any integer type (char included — it renders as a number). */
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
    JsonWriter&
    value(T number)
    {
        if constexpr (std::is_signed_v<T>)
            return intValue(static_cast<long long>(number));
        else
            return uintValue(static_cast<unsigned long long>(number));
    }

    /**
     * Emit a double: fixed with `decimals` places when >= 0, shortest
     * round-trip form otherwise.  Non-finite values become null (JSON
     * has no NaN/Inf).
     */
    JsonWriter& value(double number, int decimals = -1);

    /** Emit JSON null. */
    JsonWriter& null();

    /** key() + value() in one call, for scalar members. */
    template <typename T>
    JsonWriter&
    member(std::string_view name, const T& val)
    {
        key(name);
        return value(val);
    }

    JsonWriter&
    member(std::string_view name, double val, int decimals)
    {
        key(name);
        return value(val, decimals);
    }

    /** Escape `text` as the *inside* of a JSON string literal. */
    static std::string escape(std::string_view text);

  private:
    struct Level
    {
        bool array = false;
        bool empty = true;
    };

    std::ostream& os;
    const int indentWidth;
    std::vector<Level> stack;
    bool keyPending = false;

    /** Comma/newline/indent bookkeeping before a value or key. */
    void beforeItem();
    void writeIndent();
    void scalar(std::string_view rendered);
    JsonWriter& intValue(long long number);
    JsonWriter& uintValue(unsigned long long number);
};

} // namespace xbsp

#endif // XBSP_UTIL_JSON_HH
