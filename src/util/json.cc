#include "util/json.hh"

#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace xbsp
{

JsonWriter::JsonWriter(std::ostream& stream, int indent)
    : os(stream), indentWidth(indent)
{
}

JsonWriter::~JsonWriter()
{
    // A half-open document is a caller bug; surface it loudly rather
    // than writing syntactically broken JSON.
    if (!stack.empty() || keyPending)
        panic("JsonWriter destroyed with {} open container(s)",
              stack.size());
}

void
JsonWriter::writeIndent()
{
    os << '\n';
    for (std::size_t i = 0; i < stack.size() * indentWidth; ++i)
        os << ' ';
}

void
JsonWriter::beforeItem()
{
    if (keyPending)
        return; // the key already placed us after "name: "
    if (stack.empty())
        return; // top-level value
    if (!stack.back().empty)
        os << ',';
    stack.back().empty = false;
    writeIndent();
}

JsonWriter&
JsonWriter::beginObject()
{
    beforeItem();
    keyPending = false;
    os << '{';
    stack.push_back({false, true});
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    if (stack.empty() || stack.back().array)
        panic("JsonWriter::endObject without matching beginObject");
    const bool wasEmpty = stack.back().empty;
    stack.pop_back();
    if (!wasEmpty)
        writeIndent();
    os << '}';
    return *this;
}

JsonWriter&
JsonWriter::beginArray()
{
    beforeItem();
    keyPending = false;
    os << '[';
    stack.push_back({true, true});
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    if (stack.empty() || !stack.back().array)
        panic("JsonWriter::endArray without matching beginArray");
    const bool wasEmpty = stack.back().empty;
    stack.pop_back();
    if (!wasEmpty)
        writeIndent();
    os << ']';
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    if (stack.empty() || stack.back().array)
        panic("JsonWriter::key outside an object");
    if (keyPending)
        panic("JsonWriter::key '{}' while a key awaits its value",
              name);
    beforeItem();
    os << '"' << escape(name) << "\": ";
    keyPending = true;
    return *this;
}

void
JsonWriter::scalar(std::string_view rendered)
{
    beforeItem();
    keyPending = false;
    os << rendered;
}

JsonWriter&
JsonWriter::value(std::string_view text)
{
    beforeItem();
    keyPending = false;
    os << '"' << escape(text) << '"';
    return *this;
}

JsonWriter&
JsonWriter::value(const char* text)
{
    return value(std::string_view(text));
}

JsonWriter&
JsonWriter::value(bool flag)
{
    scalar(flag ? "true" : "false");
    return *this;
}

JsonWriter&
JsonWriter::intValue(long long number)
{
    scalar(std::to_string(number));
    return *this;
}

JsonWriter&
JsonWriter::uintValue(unsigned long long number)
{
    scalar(std::to_string(number));
    return *this;
}

JsonWriter&
JsonWriter::value(double number, int decimals)
{
    if (!std::isfinite(number))
        return null();
    char buf[64];
    if (decimals >= 0)
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, number);
    else
        std::snprintf(buf, sizeof(buf), "%.17g", number);
    scalar(buf);
    return *this;
}

JsonWriter&
JsonWriter::null()
{
    scalar("null");
    return *this;
}

namespace
{

void
appendUnicodeEscape(std::string& out, unsigned codepoint)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "\\u%04x", codepoint);
    out += buf;
}

} // namespace

std::string
JsonWriter::escape(std::string_view text)
{
    // Beyond the mandatory JSON escapes, the string is scanned as
    // UTF-8: encoded surrogate code points (which real UTF-8 forbids
    // but sloppy producers emit) become \uXXXX escapes and invalid
    // bytes become U+FFFD, so the emitted document is always valid
    // UTF-8 *and* valid JSON no matter what the key or name held.
    std::string out;
    out.reserve(text.size());
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(text.data());
    const std::size_t n = text.size();
    auto continuation = [&](std::size_t i) {
        return i < n && (bytes[i] & 0xc0) == 0x80;
    };
    for (std::size_t i = 0; i < n;) {
        const unsigned char c = bytes[i];
        if (c < 0x80) {
            switch (c) {
              case '"':
                out += "\\\"";
                break;
              case '\\':
                out += "\\\\";
                break;
              case '\b':
                out += "\\b";
                break;
              case '\f':
                out += "\\f";
                break;
              case '\n':
                out += "\\n";
                break;
              case '\r':
                out += "\\r";
                break;
              case '\t':
                out += "\\t";
                break;
              default:
                if (c < 0x20)
                    appendUnicodeEscape(out, c);
                else
                    out += static_cast<char>(c);
            }
            ++i;
            continue;
        }
        if (c >= 0xc2 && c <= 0xdf && continuation(i + 1)) {
            out.append(text, i, 2);
            i += 2;
            continue;
        }
        if (c >= 0xe0 && c <= 0xef && continuation(i + 1) &&
            continuation(i + 2)) {
            const unsigned codepoint =
                (static_cast<unsigned>(c & 0x0f) << 12) |
                (static_cast<unsigned>(bytes[i + 1] & 0x3f) << 6) |
                static_cast<unsigned>(bytes[i + 2] & 0x3f);
            if (codepoint < 0x800) {           // overlong
                appendUnicodeEscape(out, 0xfffd);
            } else if (codepoint >= 0xd800 && codepoint <= 0xdfff) {
                // Encoded (lone) surrogate: escape rather than emit
                // bytes no UTF-8 validator accepts.
                appendUnicodeEscape(out, codepoint);
            } else {
                out.append(text, i, 3);
            }
            i += 3;
            continue;
        }
        if (c >= 0xf0 && c <= 0xf4 && continuation(i + 1) &&
            continuation(i + 2) && continuation(i + 3)) {
            const unsigned codepoint =
                (static_cast<unsigned>(c & 0x07) << 18) |
                (static_cast<unsigned>(bytes[i + 1] & 0x3f) << 12) |
                (static_cast<unsigned>(bytes[i + 2] & 0x3f) << 6) |
                static_cast<unsigned>(bytes[i + 3] & 0x3f);
            if (codepoint < 0x10000 || codepoint > 0x10ffff)
                appendUnicodeEscape(out, 0xfffd);  // overlong/range
            else
                out.append(text, i, 4);
            i += 4;
            continue;
        }
        // Stray continuation byte, truncated sequence or 0xf5..0xff.
        appendUnicodeEscape(out, 0xfffd);
        ++i;
    }
    return out;
}

} // namespace xbsp
