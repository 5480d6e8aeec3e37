#include "json_reader.hh"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/format.hh"

namespace xbsp
{

bool
JsonValue::asBool() const
{
    if (what != Kind::Bool)
        throw JsonParseError("JSON value is not a boolean");
    return boolean;
}

double
JsonValue::asNumber() const
{
    if (what != Kind::Number)
        throw JsonParseError("JSON value is not a number");
    return number;
}

u64
JsonValue::asU64() const
{
    const double n = asNumber();
    if (n < 0.0 || n != std::floor(n))
        throw JsonParseError("JSON number is not a non-negative "
                             "integer");
    return static_cast<u64>(n);
}

const std::string&
JsonValue::asString() const
{
    if (what != Kind::String)
        throw JsonParseError("JSON value is not a string");
    return text;
}

const std::vector<JsonValue>&
JsonValue::items() const
{
    if (what != Kind::Array)
        throw JsonParseError("JSON value is not an array");
    return array;
}

const std::vector<JsonValue::Member>&
JsonValue::members() const
{
    if (what != Kind::Object)
        throw JsonParseError("JSON value is not an object");
    return object;
}

const JsonValue*
JsonValue::find(std::string_view key) const
{
    if (what != Kind::Object)
        return nullptr;
    for (const Member& member : object) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

const JsonValue&
JsonValue::at(std::string_view key) const
{
    const JsonValue* value = find(key);
    if (!value)
        throw JsonParseError(format("JSON object has no member '{}'",
                                    std::string(key)));
    return *value;
}

const JsonValue&
JsonValue::at(std::size_t index) const
{
    const std::vector<JsonValue>& elems = items();
    if (index >= elems.size())
        throw JsonParseError(format("JSON array index {} out of "
                                    "range ({} elements)", index,
                                    elems.size()));
    return elems[index];
}

std::size_t
JsonValue::size() const
{
    switch (what) {
      case Kind::Array:
        return array.size();
      case Kind::Object:
        return object.size();
      default:
        throw JsonParseError("JSON value is not a container");
    }
}

/** Recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view input) : text(input) {}

    JsonValue
    parseDocument()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing characters after the document");
        return value;
    }

  private:
    std::string_view text;
    std::size_t pos = 0;
    int depth = 0;

    /** Containers deeper than this reject the document (stack). */
    static constexpr int maxDepth = 256;

    [[noreturn]] void
    fail(const std::string& why) const
    {
        throw JsonParseError(
            format("JSON parse error at offset {}: {}", pos, why));
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(format("expected '{}'", c));
        ++pos;
    }

    bool
    consumeLiteral(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return false;
        pos += word.size();
        return true;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"': {
            JsonValue value;
            value.what = JsonValue::Kind::String;
            value.text = parseString();
            return value;
          }
          case 't':
          case 'f': {
            JsonValue value;
            value.what = JsonValue::Kind::Bool;
            if (consumeLiteral("true"))
                value.boolean = true;
            else if (consumeLiteral("false"))
                value.boolean = false;
            else
                fail("bad literal");
            return value;
          }
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return {};
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        if (++depth > maxDepth)
            fail("containers nested too deeply");
        expect('{');
        JsonValue value;
        value.what = JsonValue::Kind::Object;
        skipSpace();
        if (peek() == '}') {
            ++pos;
            --depth;
            return value;
        }
        while (true) {
            skipSpace();
            std::string key = parseString();
            skipSpace();
            expect(':');
            value.object.emplace_back(std::move(key), parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            --depth;
            return value;
        }
    }

    JsonValue
    parseArray()
    {
        if (++depth > maxDepth)
            fail("containers nested too deeply");
        expect('[');
        JsonValue value;
        value.what = JsonValue::Kind::Array;
        skipSpace();
        if (peek() == ']') {
            ++pos;
            --depth;
            return value;
        }
        while (true) {
            value.array.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            --depth;
            return value;
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        const std::string lexeme(text.substr(start, pos - start));
        char* end = nullptr;
        const double parsed = std::strtod(lexeme.c_str(), &end);
        if (end != lexeme.c_str() + lexeme.size())
            fail(format("bad number '{}'", lexeme));
        JsonValue value;
        value.what = JsonValue::Kind::Number;
        value.number = parsed;
        return value;
    }

    unsigned
    parseHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape");
            ++pos;
        }
        return code;
    }

    void
    appendUtf8(std::string& out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos];
            if (c == '"') {
                ++pos;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            switch (peek()) {
              case '"':
                out += '"';
                ++pos;
                break;
              case '\\':
                out += '\\';
                ++pos;
                break;
              case '/':
                out += '/';
                ++pos;
                break;
              case 'b':
                out += '\b';
                ++pos;
                break;
              case 'f':
                out += '\f';
                ++pos;
                break;
              case 'n':
                out += '\n';
                ++pos;
                break;
              case 'r':
                out += '\r';
                ++pos;
                break;
              case 't':
                out += '\t';
                ++pos;
                break;
              case 'u': {
                ++pos;
                unsigned code = parseHex4();
                // Surrogate pair: combine; a lone surrogate is kept
                // as-is (our own writer emits them for robustness).
                if (code >= 0xd800 && code <= 0xdbff &&
                    pos + 1 < text.size() && text[pos] == '\\' &&
                    text[pos + 1] == 'u') {
                    const std::size_t save = pos;
                    pos += 2;
                    const unsigned low = parseHex4();
                    if (low >= 0xdc00 && low <= 0xdfff) {
                        code = 0x10000 + ((code - 0xd800) << 10) +
                               (low - 0xdc00);
                    } else {
                        pos = save;  // not a pair; emit high alone
                    }
                }
                appendUtf8(out, code);
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }
};

JsonValue
parseJson(std::string_view text)
{
    return JsonParser(text).parseDocument();
}

JsonValue
parseJsonFile(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        throw JsonParseError(format("cannot open '{}'", path));
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return parseJson(buffer.str());
}

} // namespace xbsp
