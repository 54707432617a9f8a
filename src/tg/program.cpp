#include "tg/program.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "tg/number.hpp"

// Print, parse, encode and decode are each one routine generic over the
// kTgOps format table (tg/tg_isa.hpp): none switches on the opcode.

namespace tgsim::tg {

namespace {

/// One number through a printf format ("0x%08X", "r%u", "L%u").
std::string fmt(const char* format, u32 v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

/// A branch target's label: its name in `prog`, else L<index>.
std::string label_for(const TgProgram& prog, u32 index) {
    const auto it = prog.labels.find(index);
    return it != prog.labels.end() ? it->second : fmt("L%u", index);
}

/// The format row of `op`; an undefined opcode is std::invalid_argument.
const TgOpFormat& row(TgOp op, const char* where) {
    if (const TgOpFormat* f = format_of(op)) return *f;
    throw std::invalid_argument{std::string{where} + ": undefined opcode " +
                                fmt("0x%02X", u32(op))};
}

/// Trims whitespace and strips ';' comments.
std::string clean(const std::string& raw) {
    std::string s = raw.substr(0, raw.find(';'));
    const auto first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) return {};
    const auto last = s.find_last_not_of(" \t\r\n");
    return s.substr(first, last - first + 1);
}

/// Splits `s` at `sep` (a whitespace run when `sep` is ' '), trimming each
/// piece; a blank `s` has no pieces.
std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::istringstream is{s};
    std::string piece;
    if (sep == ' ') {
        while (is >> piece) out.push_back(piece);
    } else if (!clean(s).empty()) {
        while (std::getline(is, piece, sep)) out.push_back(clean(piece));
        if (s.back() == sep) out.emplace_back();
    }
    return out;
}

u8 parse_reg(const std::string& tok) {
    if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R'))
        throw std::invalid_argument{"tgp: bad register '" + tok + "'"};
    const auto n = to_number<u32>(std::string_view{tok}.substr(1), 10);
    if (!n || *n >= kTgNumRegs)
        throw std::invalid_argument{"tgp: register out of range '" + tok + "'"};
    return static_cast<u8>(*n);
}

u32 parse_u32(const std::string& tok) { return parse_number<u32>(tok, "tgp", 0); }

TgCmp parse_cmp(const std::string& tok) {
    for (const auto& [token, cmp] : kTgCmpTokens)
        if (tok == token) return cmp;
    throw std::invalid_argument{"tgp: bad comparison '" + tok + "'"};
}

/// A label is letters, digits, '_' and '.', so it prints back unchanged
/// in any operand position.
const std::string& check_label(const std::string& name) {
    const auto ok = [](unsigned char c) { return std::isalnum(c) || c == '_' || c == '.'; };
    if (name.empty() || !std::all_of(name.begin(), name.end(), ok))
        throw std::invalid_argument{"tgp: bad label '" + name + "'"};
    return name;
}

/// One instruction in .tgp syntax: Name(args) [then label] [{beats}].
std::string print(const TgInstr& in, const std::map<u32, std::string>& labels) {
    const TgOpFormat& f = row(in.op, "to_text");
    std::vector<std::string> args;
    if (f.has(kRegA)) args.push_back(fmt("r%u", in.a));
    if (f.has(kRegB)) args.push_back(fmt("r%u", in.b));
    if (f.has(kCount) || f.has(kImm))
        args.push_back(fmt(f.has(kHex) ? "0x%08X" : "%u", in.imm));
    if (f.has(kTarget)) args.push_back(labels.at(in.target));
    std::string s{f.name};
    std::string then;
    if (f.has(kCmp)) { // "(a CMP rhs) then label"
        (then = " then ") += args.back();
        args = {args[0] + ' ' + std::string{to_string(in.cmp)} + ' ' + args[1]};
    }
    for (std::size_t k = 0; k < args.size(); ++k) (s += k == 0 ? "(" : ", ") += args[k];
    if (!args.empty()) s += ')';
    s += then;
    if (!f.has(kBeats)) return s;
    s += " {";
    for (std::size_t k = 0; k < in.burst_data.size(); ++k)
        (s += k == 0 ? "" : ", ") += fmt("0x%08X", in.burst_data[k]);
    return s += '}';
}

/// Parses one instruction line against its op's row; a branch label goes
/// to `label`, resolved once the whole body is read.
TgInstr parse_instr(const std::string& line, std::string& label) {
    // "Name(args) suffix"; a line without '(' is a bare name.
    const auto open = std::min(line.find('('), line.size());
    const std::string name = clean(line.substr(0, open));
    const auto* f = std::find_if(kTgOps.begin(), kTgOps.end(),
                                 [&](const TgOpFormat& r) { return r.name == name; });
    if (f == kTgOps.end())
        throw std::invalid_argument{"tgp: unknown instruction '" + name + "'"};
    std::vector<std::string> args;
    std::string suffix;
    if (open < line.size()) {
        const auto close = line.find(')', open);
        if (close == std::string::npos)
            throw std::invalid_argument{"tgp: missing ')': " + line};
        args = split(line.substr(open + 1, close - open - 1), ',');
        suffix = clean(line.substr(close + 1));
    }
    TgInstr in;
    in.op = f->op;
    const std::string what = "tgp: " + name;
    if (f->has(kCmp)) { // "(a CMP rhs) then label"
        const auto cond = split(args.empty() ? "" : args[0], ' ');
        const auto then = split(suffix, ' ');
        if (args.size() != 1 || cond.size() != 3 || then.size() != 2 || then[0] != "then")
            throw std::invalid_argument{what + " wants '(a CMP rhs) then <label>'"};
        in.cmp = parse_cmp(cond[1]);
        args = {cond[0], cond[2]};
        label = check_label(then[1]);
        suffix.clear();
    }
    const bool target_arg = f->has(kTarget) && !f->has(kCmp);
    const std::size_t n =
        f->has(kRegA) + f->has(kRegB) + f->has(kCount) + f->has(kImm) + target_arg;
    if (args.size() != n)
        throw std::invalid_argument{what + ": " + std::to_string(args.size()) +
                                    " arguments, want " + std::to_string(n)};
    std::size_t k = 0;
    if (f->has(kRegA)) in.a = parse_reg(args[k++]);
    if (f->has(kRegB)) in.b = parse_reg(args[k++]);
    if (f->has(kCount)) in.imm = check_burst(parse_u32(args[k++]), "tgp");
    if (f->has(kImm)) in.imm = parse_u32(args[k++]);
    if (target_arg) label = check_label(args[k]);
    if (f->has(kBeats) && suffix.size() > 1 && suffix.front() == '{' && suffix.back() == '}') {
        for (const std::string& t : split(suffix.substr(1, suffix.size() - 2), ','))
            in.burst_data.push_back(parse_u32(t));
        suffix.clear();
    }
    if (!suffix.empty())
        throw std::invalid_argument{what + ": unexpected '" + suffix + "'"};
    if (in.burst_data.size() != (f->has(kBeats) ? in.imm : 0))
        throw std::invalid_argument{what + " wants " + std::to_string(in.imm) + " beats {..}"};
    return in;
}

/// Word 0 of an instruction of row `f`, the fields `f` does not carry zero.
u32 word0(const TgOpFormat& f, const TgWord0& w) {
    return encode_w0(f.op, f.has(kRegA) ? w.a : 0, f.has(kRegB) ? w.b : 0,
                     f.has(kCmp) ? w.cmp : TgCmp::Eq, f.has(kCount) ? w.imm12 : 0);
}

/// Decodes all of `image` against the format table, handing each
/// instruction to `visit` with its branch target still a word address.
/// Rejects, with std::invalid_argument, every image the assembler cannot
/// produce. Returns each word's instruction index (~0u: an operand word).
template <typename Visit>
std::vector<u32> decode_image(const std::vector<u32>& image, const char* where,
                              Visit&& visit) {
    std::vector<u32> index_of(image.size(), ~0u);
    std::vector<u32> targets;
    for (u32 pos = 0, n = 0; pos < image.size(); ++n) {
        const auto fail = [&](const std::string& what) {
            throw std::invalid_argument{std::string{where} + ": word " +
                                        std::to_string(pos) + ": " + what};
        };
        const TgWord0 d = decode_w0(image[pos]);
        const TgOpFormat* f = format_of(d.op);
        if (!f) fail("undefined opcode " + fmt("0x%02X", u32(d.op)));
        if (word0(*f, d) != image[pos])
            fail(std::string{f->name} + " sets an operand field it does not use");
        if (f->has(kCmp) && to_string(d.cmp) == "?")
            fail("undefined comparison " + std::to_string(u32(d.cmp)));
        TgInstr in;
        in.op = d.op;
        in.a = d.a;
        in.b = d.b;
        in.cmp = d.cmp;
        if (f->has(kCount)) in.imm = check_burst(d.imm12, where);
        const u32 words = encoded_words(d);
        if (words > image.size() - pos) fail("truncated " + std::string{f->name});
        const u32* operand = image.data() + pos + 1;
        if (f->has(kImm)) in.imm = *operand++;
        if (f->has(kTarget)) targets.push_back(in.target = *operand++);
        if (f->has(kBeats)) in.burst_data.assign(operand, operand + d.imm12);
        index_of[pos] = n;
        pos += words;
        visit(std::move(in));
    }
    for (const u32 t : targets)
        if (t >= image.size() || index_of[t] == ~0u)
            throw std::invalid_argument{std::string{where} + ": branch to word " +
                                        std::to_string(t) + ", not an instruction start"};
    return index_of;
}

} // namespace

std::string to_text(const TgProgram& prog) {
    std::ostringstream os;
    os << "; tgsim TG program\n";
    os << "MASTER[" << prog.core_id << "," << prog.thread_id << "]\n";
    for (const auto& [reg, value] : prog.reg_init)
        os << "REGISTER " << fmt("r%u", reg) << ' ' << fmt("0x%08X", value) << '\n';
    os << "BEGIN\n";
    // Collect all referenced targets so every one gets a label line.
    std::map<u32, std::string> labels;
    for (const TgInstr& in : prog.instrs)
        if (row(in.op, "to_text").has(kTarget))
            labels[in.target] = label_for(prog, in.target);
    for (u32 i = 0; i < prog.instrs.size(); ++i) {
        const auto lit = labels.find(i);
        if (lit != labels.end()) os << lit->second << ":\n";
        os << "  " << print(prog.instrs[i], labels) << '\n';
    }
    os << "END\n";
    return os.str();
}

TgProgram program_from_text(const std::string& text) {
    TgProgram prog;
    std::istringstream is{text};
    std::string raw;
    bool in_body = false;
    bool ended = false;
    std::unordered_map<std::string, u32> bound_labels;
    std::vector<std::string> refs; // per instruction; empty: no branch

    while (std::getline(is, raw)) {
        const std::string line = clean(raw);
        if (line.empty()) continue;
        if (!in_body) {
            if (line.rfind("MASTER[", 0) == 0) {
                const auto ids = split(line.substr(7, line.size() - 8), ',');
                if (line.back() != ']' || ids.size() != 2)
                    throw std::invalid_argument{"tgp: bad MASTER line '" + line + "'"};
                prog.core_id = parse_u32(ids[0]);
                prog.thread_id = parse_u32(ids[1]);
            } else if (line.rfind("REGISTER", 0) == 0) {
                const auto w = split(line, ' ');
                if (w.size() != 3 || w[0] != "REGISTER")
                    throw std::invalid_argument{"tgp: bad REGISTER line '" + line + "'"};
                prog.reg_init[parse_reg(w[1])] = parse_u32(w[2]);
            } else if (line == "BEGIN") {
                in_body = true;
            } else {
                throw std::invalid_argument{"tgp: unexpected line '" + line + "'"};
            }
            continue;
        }
        if (line == "END") {
            ended = true;
            break;
        }
        if (line.back() == ':') {
            const std::string name = check_label(clean(line.substr(0, line.size() - 1)));
            if (!bound_labels.emplace(name, static_cast<u32>(prog.instrs.size())).second)
                throw std::invalid_argument{"tgp: duplicate label " + name};
            continue;
        }
        prog.instrs.push_back(parse_instr(line, refs.emplace_back()));
    }
    if (!ended) throw std::invalid_argument{"tgp: missing END"};
    for (std::size_t i = 0; i < refs.size(); ++i) {
        if (refs[i].empty()) continue;
        const auto it = bound_labels.find(refs[i]);
        if (it == bound_labels.end() || it->second >= prog.instrs.size())
            throw std::invalid_argument{"tgp: label " + refs[i] + " names no instruction"};
        prog.instrs[i].target = it->second;
        prog.labels[it->second] = refs[i];
    }
    return prog;
}

std::size_t encoded_word_count(const TgProgram& prog) {
    std::size_t words = 0;
    for (const TgInstr& in : prog.instrs)
        words += encoded_words({in.op, 0, 0, TgCmp::Eq, in.imm});
    return words;
}

std::vector<u32> assemble(const TgProgram& prog) {
    // First pass: word offset of every instruction.
    std::vector<u32> offsets;
    offsets.reserve(prog.instrs.size());
    u32 pos = 0;
    for (const TgInstr& in : prog.instrs) {
        const TgOpFormat& f = row(in.op, "assemble");
        if (f.has(kCount)) (void)check_burst(in.imm, "assemble"); // imm12 would truncate
        if (f.has(kBeats) && in.burst_data.size() != in.imm)
            throw std::invalid_argument{"assemble: BurstWrite beat mismatch"};
        offsets.push_back(pos);
        pos += encoded_words({in.op, 0, 0, TgCmp::Eq, in.imm});
    }
    // Second pass: word 0 with the fields the row carries, then imm32,
    // branch target and beats.
    std::vector<u32> image;
    image.reserve(pos);
    for (const TgInstr& in : prog.instrs) {
        const TgOpFormat& f = *format_of(in.op);
        image.push_back(word0(f, {in.op, in.a, in.b, in.cmp, in.imm}));
        if (f.has(kImm)) image.push_back(in.imm);
        if (f.has(kTarget)) {
            if (in.target >= offsets.size())
                throw std::out_of_range{"assemble: branch target out of range"};
            image.push_back(offsets[in.target]);
        }
        if (f.has(kBeats))
            image.insert(image.end(), in.burst_data.begin(), in.burst_data.end());
    }
    return image;
}

AssembledTg assemble_tg(const TgProgram& prog) {
    AssembledTg out;
    out.image = assemble(prog);
    out.reg_init.assign(prog.reg_init.begin(), prog.reg_init.end());
    return out;
}

std::vector<AssembledTg> assemble_all(const std::vector<TgProgram>& progs) {
    std::vector<AssembledTg> out;
    out.reserve(progs.size());
    for (const TgProgram& p : progs) out.push_back(assemble_tg(p));
    return out;
}

TgProgram disassemble(const std::vector<u32>& image) {
    TgProgram prog;
    const std::vector<u32> index_of = decode_image(
        image, "disassemble", [&](TgInstr&& in) { prog.instrs.push_back(std::move(in)); });
    for (TgInstr& in : prog.instrs) {
        if (!format_of(in.op)->has(kTarget)) continue;
        in.target = index_of[in.target];
        prog.labels[in.target] = label_for(prog, in.target);
    }
    return prog;
}

void check_image(const std::vector<u32>& image) {
    (void)decode_image(image, "TG image", [](TgInstr&&) {});
}

} // namespace tgsim::tg
