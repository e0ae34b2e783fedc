import gc

# One command per process: its squares are acyclic tuples of ints and the
# process exits right after, so the cyclic collector's passes would only
# re-walk a heap about to be dropped.  Off before cli's import, which
# allocates enough to trigger them too.  The interpreter's exit collections
# ignore this switch; main() freezes the heap for them at exit.
gc.disable()

from .cli import main

main()
