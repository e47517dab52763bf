include Fq_core.Journal
