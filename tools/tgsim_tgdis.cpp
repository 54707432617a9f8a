// tgsim-tgdis — disassembles a TG .bin image back to .tgp text.
//
//   tgsim_tgdis program.bin [--out=program.tgp]
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    cli::OptionSet set{"tgsim_tgdis",
                       "disassemble a TG binary image back to .tgp text"};
    set.positional("FILE.bin", 1, 1)
        .text("out", "FILE.tgp", "", "output file (empty: stdout)");
    return set;
}

int run(const cli::OptionSet& o) {
    const tg::TgProgram prog =
        cli::load_file(o.positionals()[0], [](const auto& p) {
            return tg::disassemble(cli::load_image(p));
        });
    const std::string text = tg::to_text(prog);
    const std::string& out = o.get("out");
    if (out.empty()) {
        std::printf("%s", text.c_str());
        return 0;
    }
    cli::write_text_file(out, text);
    std::printf("wrote %s (%zu instructions)\n", out.c_str(),
                prog.instrs.size());
    return 0;
}

} // namespace

int main(int argc, char** argv) { return cli::run(options(), argc, argv, run); }
